"""Run configuration, experiment presets and file output.

Configs are JSON with nested blocks (domain/particles/time/mixture/knudsen/
init); unknown keys are rejected and every physics parameter goes through
the model validator.  Outputs are plain CSV written atomically
(write-then-rename), floats at 17 significant digits.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

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


_SCHEMA = {
    "mode": None,
    "domain": {"Lx": "Lx", "Lv": "Lv", "Nx": "Nx", "Nv": "Nv"},
    "particles": {"Np1": "Np1", "Np2": "Np2", "seed": "seed"},
    "time": {"dt": "dt", "t_end": "t_end", "output_every": "output_every"},
    "mixture": {"m1": "m1", "m2": "m2", "delta": "delta", "alpha": "alpha", "gamma": "gamma", "nu12": "nu12"},
    "knudsen": {"eps1": "eps1", "epst1": "epst1", "eps2": "eps2", "epst2": "epst2"},
    "init": {"preset": "preset", "beta": "beta", "T1": "T1", "T2": "T2"},
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
    for block, mapping in _SCHEMA.items():
        if mapping is None or block not in doc:
            continue
        sub = doc[block]
        if not isinstance(sub, dict):
            raise ConfigError(f"block '{block}' must be an object")
        for key in sub:
            if key not in mapping:
                raise ConfigError(f"unknown key '{block}.{key}'")
            values[mapping[key]] = sub[key]

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
    steps = cfg.t_end / cfg.dt
    if not (math.isfinite(steps) and round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ConfigError(
            f"field 't_end' must be a whole number (>= 1) of dt steps, got t_end={cfg.t_end!r}, dt={cfg.dt!r}"
        )
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
    doc = {
        "mode": cfg.mode,
        "domain": {"Lx": cfg.Lx, "Lv": cfg.Lv, "Nx": cfg.Nx, "Nv": cfg.Nv},
        "particles": {"Np1": cfg.Np1, "Np2": cfg.Np2, "seed": cfg.seed},
        "time": {"dt": cfg.dt, "t_end": cfg.t_end, "output_every": cfg.output_every},
        "mixture": {"m1": cfg.m1, "m2": cfg.m2, "delta": cfg.delta, "alpha": cfg.alpha,
                    "gamma": cfg.gamma, "nu12": cfg.nu12},
        "knudsen": {"eps1": cfg.eps1, "epst1": cfg.epst1, "eps2": cfg.eps2, "epst2": cfg.epst2},
        "init": {"preset": cfg.preset, "beta": cfg.beta},
    }
    if cfg.T1 is not None:
        doc["init"]["T1"] = cfg.T1
    if cfg.T2 is not None:
        doc["init"]["T2"] = cfg.T2
    return json.dumps(doc, indent=2)


# --------------------------------------------------------------------------
# presets

def _v4_profile(v):
    return v**4 / (3.0 * np.sqrt(2.0 * np.pi)) * np.exp(-(v * v) / 2.0)


@dataclass
class InitialCondition:
    moments1: callable  # x -> SpeciesMoments (arrays over x)
    moments2: callable
    f1: callable  # (x, v) -> distribution value (broadcasting)
    f2: callable
    g1: callable  # initial remainders f - M[moments]
    g2: callable


def build_initial_condition(cfg: RunConfig, p: MixtureParams) -> InitialCondition:
    mr2 = p.mass_ratio2
    if cfg.preset == "maxwellian-maxwellian":
        T1 = 1.0 if cfg.T1 is None else cfg.T1
        T2 = 0.1 if cfg.T2 is None else cfg.T2
        mom1 = lambda x: SpeciesMoments(n=np.ones_like(x), u=np.full_like(x, 0.5), T=np.full_like(x, T1))
        mom2 = lambda x: SpeciesMoments(n=np.full_like(x, 1.2), u=np.full_like(x, 0.1), T=np.full_like(x, T2))
        f1 = lambda x, v: maxwellian(SpeciesMoments(n=1.0, u=0.5, T=T1), 1.0, v) * np.ones_like(x)
        f2 = lambda x, v: maxwellian(SpeciesMoments(n=1.2, u=0.1, T=T2), mr2, v) * np.ones_like(x)
        zero = lambda x, v: np.zeros(np.broadcast(x, v).shape)
        return InitialCondition(mom1, mom2, f1, f2, zero, zero)

    if cfg.preset == "v4-maxwellian":
        T2 = 0.1 if cfg.T2 is None else cfg.T2
        mom1 = lambda x: SpeciesMoments(n=np.ones_like(x), u=np.zeros_like(x), T=np.full_like(x, 5.0))
        mom2 = lambda x: SpeciesMoments(n=np.full_like(x, 1.2), u=np.full_like(x, 0.1), T=np.full_like(x, T2))
        f1 = lambda x, v: _v4_profile(v) * np.ones_like(x)
        f2 = lambda x, v: maxwellian(SpeciesMoments(n=1.2, u=0.1, T=T2), mr2, v) * np.ones_like(x)
        g1 = lambda x, v: (_v4_profile(v) - maxwellian(SpeciesMoments(n=1.0, u=0.0, T=5.0), 1.0, v)) * np.ones_like(x)
        zero = lambda x, v: np.zeros(np.broadcast(x, v).shape)
        return InitialCondition(mom1, mom2, f1, f2, g1, zero)

    if cfg.preset == "cosine-perturbed":
        beta = cfg.beta
        T2 = 5.0 * mr2  # the v^4 profile has velocity variance 5
        amp = lambda x: 1.0 + beta * np.cos(x / 2.0)
        mom1 = lambda x: SpeciesMoments(n=np.ones_like(x), u=np.full_like(x, 0.5), T=np.ones_like(x))
        mom2 = lambda x: SpeciesMoments(n=amp(x), u=np.zeros_like(x), T=np.full_like(x, T2))
        f1 = lambda x, v: maxwellian(SpeciesMoments(n=1.0, u=0.5, T=1.0), 1.0, v) * np.ones_like(x)
        f2 = lambda x, v: amp(x) * _v4_profile(v)
        zero = lambda x, v: np.zeros(np.broadcast(x, v).shape)
        g2 = lambda x, v: amp(x) * (
            _v4_profile(v) - maxwellian(SpeciesMoments(n=1.0, u=0.0, T=T2), mr2, v)
        )
        return InitialCondition(mom1, mom2, f1, f2, zero, g2)

    raise ConfigError(f"unknown preset '{cfg.preset}'")


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
    formatted, and each f value is formatted exactly once."""
    yield "x,v,f\n"
    for xi, row in zip(xs, np.asarray(f, dtype=float).tolist()):
        yield "".join([f"{xi},{vj},{fj:.17g}\n" for vj, fj in zip(vs, row)])


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
