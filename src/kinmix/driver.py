"""Micro-macro time stepping, and the one run loop of every mode.

`run` sets up the configured state, steps it (the micro-macro `step`, or
`reference.dvm_step` in reference mode) and records the time series and
snapshots at one cadence, at times k dt for the recorded step numbers k.

One step, the same in every micro-macro mode, in this fixed order: push
particles and sort them back into cell order, deposit and differentiate the
kinetic moments, advance the macro state (`macrofv.fv_step`), rebuild the
Maxwellian fields and update particle weights (Duhamel against the per-cell
damping rate), then re-match so every cell's remainder keeps zero discrete
moments.  The source, the weight update and the matching of a species run
one block of whole cells at a time (`particles.blocks`), so that their
passes over the particles stay in cache; the split changes no bit of a
result.  On one periodic cell (homogeneous mode) every transport term is
exactly zero, so nothing is pushed, indexed by cell or deposited, the macro
step is the exchange map alone, cell fields reach the particles as the one
cell's value (`particles.Cells.repeat`) and the reconstructed f bins the
particles by velocity alone.  A species relaxes through its
`model.relaxations` view, at the damping rate intra + inter.

The micro source for species k combines three pieces that all project onto
the same local Maxwellian span, so their projections are assembled from one
summed moment triple per cell:

    S = -(1 - Pi)(v dx M_k) + Pi(v dx g_kk) + inter (M_kj - Pi M_kj)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import RunConfig, build_initial_condition, mixture_params
from .grids import GridSpec, StepWorkspace, step_workspace
from .homogeneous import analytic_temperature_gap, analytic_velocity_gap
from .macrofv import MacroState, conserved_from_moments, fv_step, moments_from_conserved
from .model import MixtureParams, Relaxation, SpeciesMoments, exchange_quantities, maxwellian, relaxations
from .particles import (
    Cells,
    ParticleSet,
    blocks,
    cell_fields,
    deposit,
    init_particles,
    local_maxwellian,
    match,
    push,
    sort_by_cell,
    update_weights,
)
from .projection import bracket, eval_projection, maxwellian_samples
from . import reference


@dataclass
class SimState:
    """Macro state and particle sets at one time; `work` holds the particle
    step's buffers and is handed on from each state to the next."""

    macro: MacroState
    ps1: ParticleSet
    ps2: ParticleSet
    work: StepWorkspace = field(default_factory=StepWorkspace, repr=False, compare=False)


@dataclass
class StepDiagnostics:
    """What one step reports: cells that matching could not solve, the
    largest post-match per-cell residual over both species (sums of w
    against the cell's basis (1, h1, h1^2 - 1)) and the cells re-solved
    because their first solve left a residual above tolerance."""

    skipped_cells: int = 0
    match_residual: float = 0.0
    refined_cells: int = 0


def _centered_dx(arr: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(arr, -1, axis=0) - np.roll(arr, 1, axis=0)) / (2.0 * dx)


def _flux_divergence(G: np.ndarray, dx: float) -> np.ndarray:
    """Centred x-derivatives of the deposited <v g>, <v^2 g>, <v^3 g> rows
    of G (`particles.deposit`), as an (Nx, 3) array: the particle flux
    divergence that both the macro step and the micro source read."""
    return np.stack([_centered_dx(G[j], dx) for j in (1, 2, 3)], axis=-1)


def _transport(ps: ParticleSet, grid: GridSpec, dt: float):
    """Push, sort and deposit one species: (sorted set, its `Cells`, its
    `_flux_divergence`).  On one periodic cell every transport term is
    exactly zero, so the set is only grouped and the divergence is None."""
    if grid.Nx == 1:
        return (*sort_by_cell(ps, grid), None)
    ps, cells = sort_by_cell(push(ps, dt, grid), grid)
    return ps, cells, _flux_divergence(deposit(ps, grid, cells=cells), grid.dx)


def _micro_source(sp: Relaxation, grid: GridSpec, flux_div: np.ndarray | None, work: StepWorkspace | None = None):
    """Vectorized micro source S(x, v) for one species plus its per-cell
    damping rate intra + inter.

    sp is the species' relaxation view (`model.relaxations`), flux_div the
    species' `_flux_divergence`, or None on one cell, where the source keeps
    only its interspecies term because every x-derivative is exactly zero.
    The per-cell coefficients are built once, on the whole grid.  The source
    takes an optional third argument, shared: a (positions, velocities,
    Cells, LocalMaxwellian) tuple reused when the source is evaluated at
    exactly those two arrays, whose grouping may be one block's
    (`particles.blocks`).  The source is written into the workspace's
    "source" buffer (a new array without `work`), which the next evaluation
    overwrites.

    In the scaled Hermite basis h1 = (v-u)/sigma, h2 = h1^2 - 1 of the cell
    Maxwellian the source is M_k(v) [P(h) - v Q(h)] + rate M_kj(v), where P
    is the projection bracket (`projection.bracket` of the summed moment
    triple) and Q the transport factor, both with per-cell coefficients on
    (1, h1, h2).  With v = u + sigma h1, P - v Q is a cubic in h1 with
    per-cell coefficients, which `projection.eval_projection` evaluates
    against M_k.
    """
    n, u, th = cell_fields(sp.moments, sp.mr, grid.Nx)
    rate, theta_cross = sp.inter, sp.T_cross / sp.mr

    # moments of the interaction Maxwellian against (1, v-u, |v-u|^2)
    duc = sp.u_cross - u
    comb0 = -rate * n
    comb1 = -rate * (n * duc)
    comb2 = -rate * (n * (theta_cross + duc * duc))

    if flux_div is not None:
        dx = grid.dx
        A = _centered_dx(n, dx) / n
        B = _centered_dx(u, dx) / th
        Cc = _centered_dx(th, dx) / (2.0 * th * th)
        # Gaussian moments of phi1 = v dx M = v M [A + B(v-u) + C((v-u)^2 - th)]
        comb0 = comb0 + n * (u * A + th * B)
        comb1 = comb1 + n * (th * A + u * th * B + 2.0 * th * th * Cc)
        comb2 = comb2 + n * (u * th * A + 3.0 * th * th * B + 2.0 * u * th * th * Cc)
        dG1, dG2, dG3 = flux_div.T
        comb0 = comb0 + dG1
        comb1 = comb1 + dG2 - u * dG1
        comb2 = comb2 + dG3 - 2.0 * u * dG2 + u * u * dG1
    # combined projection Pi(phi1 + phi2 - rate*M_kj) per unit M_k, on (1, h1, h1^2)
    poly = bracket(comb0, comb1, comb2, n, th)
    if flux_div is not None:
        # v dx M = v M Q with Q = A + B sigma h1 + C theta h2; minus
        # (u + sigma h1) Q on (1, h1, h1^2, h1^3)
        sig = np.sqrt(th)
        Q0, Q1, Q2 = A - Cc * th, B * sig, Cc * th
        poly = (poly[0] - u * Q0, poly[1] - u * Q1 - sig * Q0, poly[2] - u * Q2 - sig * Q1, -sig * Q2)
    # M_kj's velocity, variance and amplitude
    cross = (sp.u_cross, theta_cross, rate * n)

    def source_eval(x, v, shared=None):
        if shared is not None and x is shared[0] and v is shared[1]:
            cells, loc = shared[2], shared[3]
        else:
            cells = Cells(grid, x)
            loc = local_maxwellian(v, cells, sp.moments, sp.mr)
        span = cells.span
        ws = step_workspace(work)
        out = eval_projection([c[span] for c in poly], loc.h1, loc.M, cells.expand, ws.buffer("source", v.size))
        # rate M_kj(v), into one buffer
        z = ws.buffer("scratch", v.size)
        out += maxwellian_samples(v, *(c[span] for c in cross), cells.expand, z, z)
        return out

    return source_eval, sp.intra + sp.inter


def _relax_particles(sp: Relaxation, ps, cells, flux_div, grid, dt, work):
    """Weight update and matching of one cell-sorted species grouped by
    `cells`, block by block (`particles.blocks`), through the buffers of
    `work`.  The source's per-cell coefficients are built once on the whole
    grid; in each block the cell Maxwellian at its particles is evaluated
    once and shared by the source, the update and the matching, and the
    matched weights go into one new array for the whole set.  Returns
    (matched set, skipped cells, largest post-match residual, re-solved
    cells)."""
    source_eval, lam = _micro_source(sp, grid, flux_div, work)
    volume = grid.Lx * grid.Lv / ps.Np
    parts = blocks(ps, cells)
    w = np.empty(ps.Np) if len(parts) > 1 else None
    diags = []
    for sl, psb, cb in parts:
        span = cb.span
        mk = SpeciesMoments(n=sp.moments.n[span], u=sp.moments.u[span], T=sp.moments.T[span])
        loc = local_maxwellian(psb.v, cb, mk, sp.mr, work)
        se = partial(source_eval, shared=(psb.x, psb.v, cb, loc))
        psb = update_weights(psb, se, lam[span], dt, grid, volume, cells=cb, work=work)
        matched, *diag = match(psb, grid, mk, sp.mr, idx=cb.key, local=loc, cells=cb, work=work)
        if w is not None:
            w[sl] = matched.w
        diags.append(diag)
    skipped, residual, refined = zip(*diags)
    matched = matched if w is None else ParticleSet(x=ps.x, v=ps.v, w=w)
    return matched, sum(skipped), float(np.max(residual)), sum(refined)


def step(sim: SimState, p: MixtureParams, grid: GridSpec, dt: float):
    """Advance the coupled system by dt; returns (new SimState, diagnostics).

    Every micro-macro mode takes this one path.  On one cell
    (`grid.Nx == 1`) the transport terms vanish exactly: `_transport` neither
    pushes, indexes nor deposits, and `fv_step` is the exchange map.  The new
    state's particle arrays are new; the input state is left as it was, and
    its workspace is handed on to the new state."""
    ps1, cells1, div1 = _transport(sim.ps1, grid, dt)
    ps2, cells2, div2 = _transport(sim.ps2, grid, dt)
    macro = fv_step(sim.macro, None if div1 is None else (div1, div2), p, dt)

    m1 = moments_from_conserved(macro.U1, 1.0, where="(species 1)")
    m2 = moments_from_conserved(macro.U2, p.mass_ratio2, where="(species 2)")
    sp1, sp2 = relaxations(m1, m2, exchange_quantities(m1, m2, p), p)

    ps1, sk1, res1, ref1 = _relax_particles(sp1, ps1, cells1, div1, grid, dt, sim.work)
    ps2, sk2, res2, ref2 = _relax_particles(sp2, ps2, cells2, div2, grid, dt, sim.work)

    diag = StepDiagnostics(skipped_cells=sk1 + sk2, match_residual=max(res1, res2), refined_cells=ref1 + ref2)
    return SimState(macro=macro, ps1=ps1, ps2=ps2, work=sim.work), diag


# --------------------------------------------------------------------------
# full runs

@dataclass
class Snapshot:
    t: float
    x: np.ndarray
    v: np.ndarray
    f1: np.ndarray  # (Nx, Nv)
    f2: np.ndarray


@dataclass
class RunResult:
    mode: str
    times: np.ndarray
    series: dict
    snapshots: list
    grid: GridSpec
    params: MixtureParams
    final_state: object = None
    skipped_cells_total: int = 0


def setup_simulation(cfg: RunConfig):
    """Build (grid, params, state) from a validated configuration: the state
    is a SimState, or in reference mode the sampled GridDistribution."""
    grid = GridSpec(Lx=cfg.Lx, Nx=cfg.Nx, Lv=cfg.Lv, Nv=cfg.Nv)
    p = mixture_params(cfg)
    ic = build_initial_condition(cfg, p)
    if cfg.mode == "reference":
        X = grid.x_centers[:, None]
        V = grid.v_nodes[None, :]
        return grid, p, reference.GridDistribution(f1=ic.f1(X, V), f2=ic.f2(X, V), grid=grid)
    xc = grid.x_centers
    mom1 = ic.moments1(xc)
    mom2 = ic.moments2(xc)
    macro = MacroState(
        U1=conserved_from_moments(mom1, 1.0),
        U2=conserved_from_moments(mom2, p.mass_ratio2),
        dx=grid.dx,
    )
    ss = np.random.SeedSequence(cfg.seed)
    s1, s2 = ss.spawn(2)
    ps1 = init_particles(ic.g1, grid, cfg.Np1, s1)
    ps2 = init_particles(ic.g2, grid, cfg.Np2, s2)
    return grid, p, SimState(macro=macro, ps1=ps1, ps2=ps2)


def _reconstruct_f(sim: SimState, moments, p: MixtureParams, grid: GridSpec):
    """f_k = Maxwellian(macro) + binned remainder on the (x, v-bin) grid;
    `moments` holds both species' cell moments of the macro state.  On one
    cell a particle's bin is its velocity bin."""
    vb = grid.v_bin_centers
    out = []
    for m, mr, ps in zip(moments, (1.0, p.mass_ratio2), (sim.ps1, sim.ps2)):
        f = maxwellian(SpeciesMoments(n=m.n[:, None], u=m.u[:, None], T=m.T[:, None]), mr, vb[None, :])
        vi = ps.v + 0.5 * grid.Lv
        vi /= grid.dv_bin
        vi = vi.astype(np.int64)
        np.clip(vi, 0, grid.Nv - 1, out=vi)
        bins = vi
        if grid.Nx > 1:
            bins = grid.cell_index(ps.x)
            bins *= grid.Nv
            bins += vi
        H = np.bincount(bins, weights=ps.w, minlength=grid.Nx * grid.Nv)
        H /= grid.dx * grid.dv_bin
        f += H.reshape(grid.Nx, grid.Nv)
        out.append(f)
    return out


def _entropy_diagnostic(fs, moments, p: MixtureParams, grid: GridSpec) -> float:
    """H(f1|M1) + H(f2|M2) of the reconstructed distributions `fs` against
    the Maxwellians of their cell `moments`, averaged over the cells (the
    homogeneous mode it serves has one).  Histogram noise can undershoot
    zero; such bins are clipped (diagnostic only)."""
    vb = grid.v_bin_centers
    total = 0.0
    for f, m, mr in zip(fs, moments, (1.0, p.mass_ratio2)):
        th = (m.T / mr)[:, None]
        lnM = np.log(m.n)[:, None] - 0.5 * np.log(2.0 * np.pi * th) - ((vb - m.u[:, None]) ** 2) / (2.0 * th)
        f = np.clip(f, 0.0, None)
        pos = f > 0
        total += float(np.sum(grid.dv_bin * f[pos] * (np.log(f[pos]) - lnM[pos]))) / grid.Nx
    return total


def run(cfg: RunConfig) -> RunResult:
    """Run the configured simulation and collect time series + snapshots.

    The reference mode steps the discrete-velocity solver and records its
    grid moments and f itself; the micro-macro modes step `step` and record
    the macro moments, the summed |weights| and the reconstructed f, and the
    homogeneous mode adds the closed-form decay laws and the entropy."""
    grid, p, state = setup_simulation(cfg)
    kinetic = cfg.mode == "reference"
    homogeneous = cfg.mode == "homogeneous"
    mr2, dx = p.mass_ratio2, grid.dx
    nsteps = int(round(cfg.t_end / cfg.dt))

    if homogeneous:
        m1_0 = moments_from_conserved(state.macro.U1, 1.0)
        m2_0 = moments_from_conserved(state.macro.U2, mr2)
        u1, u2, T1, T2, n1, n2 = (float(np.mean(a)) for a in (m1_0.u, m2_0.u, m1_0.T, m2_0.T, m1_0.n, m2_0.n))

    series: dict[str, list] = {}  # columns in the order the first record adds them
    times: list[float] = []
    snapshots: list[Snapshot] = []
    skipped = 0

    def record(s, t):
        if kinetic:
            U1, U2 = reference.conserved(s.f1, grid), reference.conserved(s.f2, grid)
            v, f1, f2 = grid.v_nodes, s.f1.copy(), s.f2.copy()
        else:
            U1, U2 = s.macro.U1, s.macro.U2
        m1, m2 = moments_from_conserved(U1, 1.0), moments_from_conserved(U2, mr2)
        if not kinetic:
            v, (f1, f2) = grid.v_bin_centers, _reconstruct_f(s, (m1, m2), p, grid)
        row = {
            "gap_u_inf": np.max(np.abs(m1.u - m2.u)),
            "gap_T_inf": np.max(np.abs(m1.T - m2.T)),
            "gap_u_sq": np.max((m1.u - m2.u) ** 2),
            "mass1": np.sum(m1.n) * dx,
            "mass2": np.sum(m2.n) * dx,
            "momentum": np.sum(U1[:, 1] + mr2 * U2[:, 1]) * dx,
            "energy": np.sum(U1[:, 2] + mr2 * U2[:, 2]) * dx,
        }
        if not kinetic:
            row["sum_abs_w1"] = np.sum(np.abs(s.ps1.w))
            row["sum_abs_w2"] = np.sum(np.abs(s.ps2.w))
        if homogeneous:
            row["analytic_gap_u_sq"] = analytic_velocity_gap(t, u1, u2, p, n1, n2)
            row["analytic_gap_T"] = analytic_temperature_gap(t, u1, u2, T1, T2, p, n1, n2)
            row["entropy"] = _entropy_diagnostic((f1, f2), (m1, m2), p, grid)
        times.append(t)
        for key, val in row.items():
            series.setdefault(key, []).append(float(val))
        snapshots.append(Snapshot(t=t, x=grid.x_centers.copy(), v=v.copy(), f1=f1, f2=f2))

    record(state, 0.0)
    for k in range(nsteps):
        try:
            if kinetic:
                state = reference.dvm_step(state, p, cfg.dt)
            else:
                state, diag = step(state, p, grid, cfg.dt)
                skipped += diag.skipped_cells
        except Exception as e:
            raise RuntimeError(f"run aborted at step {k + 1}/{nsteps} (t={k * cfg.dt:.6g}): {e}") from e
        if (k + 1) % cfg.output_every == 0 or k == nsteps - 1:
            record(state, (k + 1) * cfg.dt)

    return RunResult(
        mode=cfg.mode,
        times=np.array(times),
        series={k: np.array(val) for k, val in series.items()},
        snapshots=snapshots,
        grid=grid,
        params=p,
        final_state=state,
        skipped_cells_total=skipped,
    )
