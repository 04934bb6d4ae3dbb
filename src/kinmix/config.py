"""Run configuration, experiment presets and file output.

Configs are JSON with nested blocks (domain/particles/time/mixture/knudsen/
init); unknown keys are rejected, every physics parameter goes through the
model validator and t_end through the run clock's rule (`grids.step_count`).
A preset's species are uniform Maxwellians or an amplitude in x times the
v^4 profile.  Outputs are plain CSV written atomically (write-then-rename),
floats at 17 significant digits.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, step_count
from .model import MixtureParams, SpeciesMoments, maxwellian, validate_params


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    mode: str = "general"
    # domain
    Lx: float = 4.0 * np.pi
    Lv: float = 20.0
    Nx: int = 128
    Nv: int = 512
    # particles
    Np1: int = 10_000
    Np2: int = 10_000
    seed: int = 0
    # time
    dt: float = 1e-2
    t_end: float = 1.0
    output_every: int = 1
    # mixture
    m1: float = 1.0
    m2: float = 1.5
    delta: float = 0.5
    alpha: float = 0.5
    gamma: float = 0.1
    nu12: float = 1.0
    # knudsen
    eps1: float = 1.0
    epst1: float = 1.0
    eps2: float = 1.0
    epst2: float = 1.0
    # init
    preset: str = "maxwellian-maxwellian"
    beta: float = 0.1
    T1: float | None = None
    T2: float | None = None


# the JSON blocks of a config and the RunConfig fields each one holds
_SCHEMA = {
    "mode": None,
    "domain": ("Lx", "Lv", "Nx", "Nv"),
    "particles": ("Np1", "Np2", "seed"),
    "time": ("dt", "t_end", "output_every"),
    "mixture": ("m1", "m2", "delta", "alpha", "gamma", "nu12"),
    "knudsen": ("eps1", "epst1", "eps2", "epst2"),
    "init": ("preset", "beta", "T1", "T2"),
}

PRESETS = {
    "maxwellian-maxwellian": "two Maxwellians: (n,u,T)=(1, 0.5, 1) and (1.2, 0.1, 0.1), m2/m1=1.5; "
    "init.T1 / init.T2 override the temperatures",
    "v4-maxwellian": "species 1 is the non-Maxwellian v^4 profile (n,u,T)=(1, 0, 5); species 2 "
    "Maxwellian (1.2, 0.1, 0.1), init.T2 overrides",
    "cosine-perturbed": "species 2 = (1 + beta cos(x/2)) * v^4 profile, species 1 Maxwellian "
    "(1, 0.5, 1); spatially inhomogeneous",
}


def mixture_params(cfg: RunConfig) -> MixtureParams:
    return validate_params(
        MixtureParams(
            m1=cfg.m1, m2=cfg.m2, delta=cfg.delta, alpha=cfg.alpha, gamma=cfg.gamma,
            eps1=cfg.eps1, epst1=cfg.epst1, eps2=cfg.eps2, epst2=cfg.epst2, nu12=cfg.nu12,
        )
    )


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be a JSON object")

    values: dict = {}
    for key in doc:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'")
    if "knudsen" not in doc:
        raise ConfigError("missing required block 'knudsen'")
    if "mode" in doc:
        if doc["mode"] not in ("homogeneous", "general", "reference"):
            raise ConfigError(f"mode must be homogeneous|general|reference, got '{doc['mode']}'")
        values["mode"] = doc["mode"]
    for block, fields in _SCHEMA.items():
        if fields is None or block not in doc:
            continue
        sub = doc[block]
        if not isinstance(sub, dict):
            raise ConfigError(f"block '{block}' must be an object")
        for key in sub:
            if key not in fields:
                raise ConfigError(f"unknown key '{block}.{key}'")
            values[key] = sub[key]

    cfg = RunConfig(**values)
    _validate_fields(cfg)
    p = mixture_params(cfg)  # physics validation; raises ParameterError naming the bound
    # every species and interaction Maxwellian a run starts from has velocity
    # variance >= min(T1, T2) / max(1, m2/m1); one narrower than half a velocity
    # node turns the reference solver's discrete Maxwellians singular
    ic = build_initial_condition(cfg, p)
    T = min(ic.moments1(np.zeros(1)).T[0], ic.moments2(np.zeros(1)).T[0])
    sigma, dv = math.sqrt(T / max(1.0, p.mass_ratio2)), cfg.Lv / (cfg.Nv - 1)
    if not sigma >= 0.5 * dv:
        raise ConfigError(
            f"thermal speed sqrt(min(T1, T2) / max(1, m2/m1)) = {sigma:.3g} is below half the velocity "
            f"node spacing Lv/(Nv-1) = {dv:.3g}: raise Nv, T1 or T2"
        )
    # the upwind bound `reference.dvm_step` checks, from the same grid
    dt_max = GridSpec(Lx=cfg.Lx, Nx=cfg.Nx, Lv=cfg.Lv, Nv=cfg.Nv).upwind_dt_max()
    if cfg.mode == "reference" and cfg.dt > dt_max:
        raise ConfigError(f"field 'time.dt' = {cfg.dt!r} breaks the upwind CFL bound of reference mode: "
                          f"need time.dt <= dx / max|v| = (Lx/Nx) / (Lv/2) = {dt_max!r}")
    return cfg


_REAL_FIELDS = (
    "Lx", "Lv", "dt", "t_end", "m1", "m2", "delta", "alpha", "gamma", "nu12",
    "eps1", "epst1", "eps2", "epst2", "beta", "T1", "T2",
)


def _is_finite_number(val) -> bool:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


def _validate_fields(cfg: RunConfig) -> None:
    for name in _REAL_FIELDS:
        val = getattr(cfg, name)
        if not (_is_finite_number(val) or (val is None and name in ("T1", "T2"))):
            raise ConfigError(f"field '{name}' must be a finite number, got {val!r}")
    for name in ("Lx", "Lv", "dt", "t_end", "T1", "T2"):
        val = getattr(cfg, name)
        if val is not None and not val > 0:
            raise ConfigError(f"field '{name}' must be a number > 0, got {val!r}")
    try:
        step_count(cfg.dt, cfg.t_end)  # t_end > 0 here, so at least 1 step
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for name, low in (("Nx", 1), ("Nv", 2), ("Np1", 1), ("Np2", 1), ("output_every", 1), ("seed", 0)):
        val = getattr(cfg, name)
        if isinstance(val, bool) or not isinstance(val, int) or val < low:
            raise ConfigError(f"field '{name}' must be an integer >= {low}, got {val!r}")
    if cfg.preset not in PRESETS:
        raise ConfigError(f"init.preset must be one of {sorted(PRESETS)}, got '{cfg.preset}'")
    if cfg.mode == "homogeneous":
        if cfg.Nx != 1:
            raise ConfigError("domain.Nx must be 1 in homogeneous mode")
        if cfg.preset == "cosine-perturbed":
            raise ConfigError("init.preset 'cosine-perturbed' is spatially dependent; not valid in homogeneous mode")
    if cfg.preset == "cosine-perturbed" and not abs(cfg.beta) < 1:
        # the species-2 density 1 + beta cos(x/2) must stay positive
        raise ConfigError(f"field 'beta' must have |beta| < 1 for the cosine-perturbed preset, got {cfg.beta!r}")
    if cfg.T1 is not None and cfg.preset != "maxwellian-maxwellian":
        raise ConfigError("init.T1 override only applies to the maxwellian-maxwellian preset")
    if cfg.T2 is not None and cfg.preset == "cosine-perturbed":
        raise ConfigError("init.T2 override does not apply to the cosine-perturbed preset")


def config_to_json(cfg: RunConfig) -> str:
    """The JSON document of cfg, block by block as `parse_config` reads it;
    unset temperature overrides (None) are left out."""
    doc = {"mode": cfg.mode}
    for block, fields in _SCHEMA.items():
        if fields is not None:
            doc[block] = {k: getattr(cfg, k) for k in fields if getattr(cfg, k) is not None}
    return json.dumps(doc, indent=2)


# --------------------------------------------------------------------------
# presets

def _v4_profile(v):
    """v^4 exp(-v^2/2) / (3 sqrt(2 pi)), as an array, built in place in two
    arrays of v's size (v^2 and the exponential)."""
    v2 = np.array(v, dtype=float)
    v2 *= v2  # squared twice: no libm pow for v^4
    e = np.divide(v2, -2.0, out=np.empty_like(v2))
    np.exp(e, out=e)
    v2 *= v2
    v2 /= 3.0 * np.sqrt(2.0 * np.pi)
    v2 *= e
    return v2


def _cosine_amplitude(x, beta: float):
    """1 + beta cos(x/2), as an array, built in place in one array of x's size."""
    a = np.array(x, dtype=float)
    a /= 2.0
    np.cos(a, out=a)
    a *= beta
    a += 1.0
    return a


@dataclass
class InitialCondition:
    moments1: callable  # x -> SpeciesMoments (arrays over x)
    moments2: callable
    f1: callable  # (x, v) -> distribution value (broadcasting)
    f2: callable
    g1: callable  # initial remainders f - M[moments]
    g2: callable


def _uniform_maxwellian(n: float, u: float, T: float, mr: float):
    """(moments, f, remainder) of a species that is the Maxwellian (n, u, T)
    at every x: its remainder is zero."""
    mom = lambda x: SpeciesMoments(n=np.full_like(x, n), u=np.full_like(x, u), T=np.full_like(x, T))
    f = lambda x, v: maxwellian(SpeciesMoments(n=n, u=u, T=T), mr, v) * np.ones_like(x)
    zero = lambda x, v: np.zeros(np.broadcast(x, v).shape)
    return mom, f, zero


def _v4_species(amp, mr: float):
    """(moments, f, remainder) of the species amp(x) times the v^4 profile,
    whose velocity variance is 5, so T = 5 mr."""
    T = 5.0 * mr
    mom = lambda x: SpeciesMoments(n=amp(x), u=np.zeros_like(x), T=np.full_like(x, T))
    f = lambda x, v: amp(x) * _v4_profile(v)
    g = lambda x, v: amp(x) * (_v4_profile(v) - maxwellian(SpeciesMoments(n=1.0, u=0.0, T=T), mr, v))
    return mom, f, g


def build_initial_condition(cfg: RunConfig, p: MixtureParams) -> InitialCondition:
    mr2 = p.mass_ratio2
    T2 = 0.1 if cfg.T2 is None else cfg.T2
    if cfg.preset == "maxwellian-maxwellian":
        s1 = _uniform_maxwellian(1.0, 0.5, 1.0 if cfg.T1 is None else cfg.T1, 1.0)
        s2 = _uniform_maxwellian(1.2, 0.1, T2, mr2)
    elif cfg.preset == "v4-maxwellian":
        s1, s2 = _v4_species(np.ones_like, 1.0), _uniform_maxwellian(1.2, 0.1, T2, mr2)
    elif cfg.preset == "cosine-perturbed":
        beta = cfg.beta
        s1, s2 = _uniform_maxwellian(1.0, 0.5, 1.0, 1.0), _v4_species(lambda x: _cosine_amplitude(x, beta), mr2)
    else:
        raise ConfigError(f"unknown preset '{cfg.preset}'")
    (mom1, f1, g1), (mom2, f2, g2) = s1, s2
    return InitialCondition(mom1, mom2, f1, f2, g1, g2)


# --------------------------------------------------------------------------
# output files

def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temp file beside `path`, then rename it over
    `path`; on any failure the temp file is removed and `path` is untouched."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_timeseries(path: str, result) -> None:
    """Time-series CSV: t plus the run's diagnostic columns, 17 digits."""
    cols = ["t"] + list(result.series.keys())
    lines = [",".join(cols) + "\n"]
    for i, t in enumerate(result.times):
        row = [t] + [result.series[c][i] for c in cols[1:]]
        lines.append(",".join(_fmt(float(val)) for val in row) + "\n")
    _atomic_write(path, lines)


def _snapshot_rows(xs: list[str], vs: list[str], f) -> Iterator[str]:
    """The CSV text of one species, one chunk per x-row: x and v arrive
    formatted, and each row's f values are formatted by one %-operation on
    the row's template "x,v_0,%.17g\nx,v_1,%.17g\n..."."""
    yield "x,v,f\n"
    # joined by x, these give the row template ("" leads, so x opens each line)
    tails = ["", *(f",{vj},%.17g\n" for vj in vs)]
    for xi, row in zip(xs, np.asarray(f, dtype=float).tolist()):
        yield xi.join(tails) % tuple(row)


def write_snapshot(outdir: str, snapshot, index: int) -> list[str]:
    """One CSV per species: columns x, v, f over the (x, v) grid, streamed to
    the file one x-row at a time."""
    xs = [_fmt(x) for x in np.asarray(snapshot.x, dtype=float).tolist()]
    vs = [_fmt(v) for v in np.asarray(snapshot.v, dtype=float).tolist()]
    written = []
    for tag, f in (("s1", snapshot.f1), ("s2", snapshot.f2)):
        if np.shape(f) != (len(xs), len(vs)):
            raise ValueError(f"snapshot f{tag[1]} has shape {np.shape(f)}, expected {(len(xs), len(vs))}")
        path = os.path.join(outdir, f"snapshot_{tag}_{index:04d}.csv")
        _atomic_write(path, _snapshot_rows(xs, vs, f))
        written.append(path)
    return written
