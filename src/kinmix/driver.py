"""Micro-macro time stepping, and the one run loop of every mode.

`run` sets up the configured state, steps it (the micro-macro `step`, or
`reference.dvm_step` in reference mode) and records the time series and
snapshots at one cadence.

One step, in this fixed order: push particles and sort them back into cell
order, deposit and differentiate the kinetic moments, advance the macro
state, rebuild the Maxwellian fields and update particle weights (Duhamel
against the per-cell damping rate), then re-match so every cell's remainder
keeps zero discrete moments.  A species relaxes through its
`model.relaxations` view, at the damping rate intra + inter.

The micro source for species k combines three pieces that all project onto
the same local Maxwellian span, so their projections are assembled from one
summed moment triple per cell:

    S = -(1 - Pi)(v dx M_k) + Pi(v dx g_kk) + inter (M_kj - Pi M_kj)
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, build_initial_condition, mixture_params
from .grids import GridSpec, StepWorkspace, step_workspace
from .homogeneous import analytic_temperature_gap, analytic_velocity_gap, moment_ode_step
from .macrofv import MacroState, conserved_from_moments, fv_step, moments_from_conserved
from .model import MixtureParams, Relaxation, SpeciesMoments, exchange_quantities, maxwellian, relaxations
from .particles import (
    Cells,
    ParticleSet,
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

    @property
    def t(self) -> float:
        return self.macro.t


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


def _micro_source(
    sp: Relaxation,
    grid: GridSpec,
    g_moments,
    transport: bool,
    shared=None,
    work: StepWorkspace | None = None,
):
    """Vectorized micro source S(x, v) for one species plus its per-cell
    damping rate intra + inter.

    sp is the species' relaxation view (`model.relaxations`), g_moments the
    deposited remainder moments (rows <g>, <vg>, <v^2 g>, <v^3 g>) or None
    when transport is off.
    shared is an optional (positions, velocities, Cells, LocalMaxwellian)
    tuple reused when the source is evaluated at exactly those two arrays.
    The source is written into the workspace's "source" buffer (a new array
    without `work`), which the next evaluation overwrites.

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

    if transport:
        dx = grid.dx
        A = _centered_dx(n, dx) / n
        B = _centered_dx(u, dx) / th
        Cc = _centered_dx(th, dx) / (2.0 * th * th)
        # Gaussian moments of phi1 = v dx M = v M [A + B(v-u) + C((v-u)^2 - th)]
        comb0 = comb0 + n * (u * A + th * B)
        comb1 = comb1 + n * (th * A + u * th * B + 2.0 * th * th * Cc)
        comb2 = comb2 + n * (u * th * A + 3.0 * th * th * B + 2.0 * u * th * th * Cc)
        dG1 = _centered_dx(g_moments[1], dx)
        dG2 = _centered_dx(g_moments[2], dx)
        dG3 = _centered_dx(g_moments[3], dx)
        comb0 = comb0 + dG1
        comb1 = comb1 + dG2 - u * dG1
        comb2 = comb2 + dG3 - 2.0 * u * dG2 + u * u * dG1
    # combined projection Pi(phi1 + phi2 - rate*M_kj) per unit M_k, on (1, h1, h1^2)
    poly = bracket(comb0, comb1, comb2, n, th)
    if transport:
        # v dx M = v M Q with Q = A + B sigma h1 + C theta h2; minus
        # (u + sigma h1) Q on (1, h1, h1^2, h1^3)
        sig = np.sqrt(th)
        Q0, Q1, Q2 = A - Cc * th, B * sig, Cc * th
        poly = (poly[0] - u * Q0, poly[1] - u * Q1 - sig * Q0, poly[2] - u * Q2 - sig * Q1, -sig * Q2)

    def source_eval(x, v):
        if shared is not None and x is shared[0] and v is shared[1]:
            cells, loc = shared[2], shared[3]
        else:
            cells = Cells(grid, x)
            loc = local_maxwellian(v, cells, sp.moments, sp.mr)
        ws = step_workspace(work)
        out = eval_projection(poly, loc.h1, loc.M, cells.expand, ws.buffer("source", v.size))
        # rate M_kj(v), into one buffer
        z = ws.buffer("scratch", v.size)
        out += maxwellian_samples(v, sp.u_cross, theta_cross, rate * n, cells.expand, z, z)
        return out

    return source_eval, sp.intra + sp.inter


def _relax_particles(sp: Relaxation, ps, cells, G, grid, dt, transport, work):
    """Weight update and matching of one cell-sorted species grouped by
    `cells`, through the buffers of `work`; the cell Maxwellian at its
    particles is evaluated once and shared by the source, the update and the
    matching.  Returns (matched set, skipped cells, largest post-match
    residual, re-solved cells)."""
    loc = local_maxwellian(ps.v, cells, sp.moments, sp.mr, work)
    se, lam = _micro_source(sp, grid, G, transport, (ps.x, ps.v, cells, loc), work)
    ps = update_weights(ps, se, lam, dt, grid, cells=cells, work=work)
    return match(ps, grid, sp.moments, sp.mr, idx=cells.key, local=loc, cells=cells, work=work)


def step(
    sim: SimState,
    p: MixtureParams,
    grid: GridSpec,
    dt: float,
    transport: bool = True,
):
    """Advance the coupled system by dt; returns (new SimState, diagnostics).

    The new state's particle arrays are new; the input state is left as it
    was, and its workspace is handed on to the new state."""
    mr2 = p.mass_ratio2
    ps1, ps2, work = sim.ps1, sim.ps2, sim.work

    if transport:
        ps1, cells1 = sort_by_cell(push(ps1, dt, grid), grid)
        ps2, cells2 = sort_by_cell(push(ps2, dt, grid), grid)
        G1 = deposit(ps1, grid, cells=cells1)
        G2 = deposit(ps2, grid, cells=cells2)
        pdiv1 = np.stack([_centered_dx(G1[j], grid.dx) for j in (1, 2, 3)], axis=-1)
        pdiv2 = np.stack([_centered_dx(G2[j], grid.dx) for j in (1, 2, 3)], axis=-1)
        macro = fv_step(sim.macro, (pdiv1, pdiv2), p, dt)
    else:
        # space-homogeneous: macro moments follow the relaxation ODEs (RK4),
        # densities constant; no kinetic flux feeds back
        G1 = G2 = None
        ps1, cells1 = sort_by_cell(ps1, grid)
        ps2, cells2 = sort_by_cell(ps2, grid)
        m1 = moments_from_conserved(sim.macro.U1, 1.0, where="(species 1)")
        m2 = moments_from_conserved(sim.macro.U2, mr2, where="(species 2)")
        u1, u2, T1, T2 = moment_ode_step(m1.u, m2.u, m1.T, m2.T, p, m1.n, m2.n, dt)
        macro = MacroState(
            U1=conserved_from_moments(SpeciesMoments(n=m1.n, u=u1, T=T1), 1.0),
            U2=conserved_from_moments(SpeciesMoments(n=m2.n, u=u2, T=T2), mr2),
            dx=sim.macro.dx,
            t=sim.macro.t + dt,
        )

    m1 = moments_from_conserved(macro.U1, 1.0, where="(species 1)")
    m2 = moments_from_conserved(macro.U2, mr2, where="(species 2)")
    sp1, sp2 = relaxations(m1, m2, exchange_quantities(m1, m2, p), p)

    ps1, sk1, res1, ref1 = _relax_particles(sp1, ps1, cells1, G1, grid, dt, transport, work)
    ps2, sk2, res2, ref2 = _relax_particles(sp2, ps2, cells2, G2, grid, dt, transport, work)

    return (
        SimState(macro=macro, ps1=ps1, ps2=ps2, work=work),
        StepDiagnostics(
            skipped_cells=sk1 + sk2,
            match_residual=max(res1, res2),
            refined_cells=ref1 + ref2,
        ),
    )


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
        t=0.0,
    )
    ss = np.random.SeedSequence(cfg.seed)
    s1, s2 = ss.spawn(2)
    ps1 = init_particles(ic.g1, grid, cfg.Np1, s1)
    ps2 = init_particles(ic.g2, grid, cfg.Np2, s2)
    return grid, p, SimState(macro=macro, ps1=ps1, ps2=ps2)


def _reconstruct_f(sim: SimState, p: MixtureParams, grid: GridSpec):
    """f_k = Maxwellian(macro) + binned remainder on the (x, v-bin) grid."""
    mr2 = p.mass_ratio2
    vb = grid.v_bin_centers
    out = []
    for U, mr, ps in ((sim.macro.U1, 1.0, sim.ps1), (sim.macro.U2, mr2, sim.ps2)):
        m = moments_from_conserved(U, mr)
        f = maxwellian(SpeciesMoments(n=m.n[:, None], u=m.u[:, None], T=m.T[:, None]), mr, vb[None, :])
        vi = ps.v + 0.5 * grid.Lv
        vi /= grid.dv_bin
        vi = vi.astype(np.int64)
        np.clip(vi, 0, grid.Nv - 1, out=vi)
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

    def record(s):
        if kinetic:
            U1, U2 = reference.conserved(s.f1, grid), reference.conserved(s.f2, grid)
            v, f1, f2 = grid.v_nodes, s.f1.copy(), s.f2.copy()
        else:
            U1, U2 = s.macro.U1, s.macro.U2
            v, (f1, f2) = grid.v_bin_centers, _reconstruct_f(s, p, grid)
        m1, m2 = moments_from_conserved(U1, 1.0), moments_from_conserved(U2, mr2)
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
            row["analytic_gap_u_sq"] = analytic_velocity_gap(s.t, u1, u2, p, n1, n2)
            row["analytic_gap_T"] = analytic_temperature_gap(s.t, u1, u2, T1, T2, p, n1, n2)
            row["entropy"] = _entropy_diagnostic((f1, f2), (m1, m2), p, grid)
        times.append(s.t)
        for key, val in row.items():
            series.setdefault(key, []).append(float(val))
        snapshots.append(Snapshot(t=s.t, x=grid.x_centers.copy(), v=v.copy(), f1=f1, f2=f2))

    record(state)
    for k in range(nsteps):
        try:
            if kinetic:
                state = reference.dvm_step(state, p, cfg.dt)
            else:
                state, diag = step(state, p, grid, cfg.dt, transport=cfg.mode == "general")
                skipped += diag.skipped_cells
        except Exception as e:
            raise RuntimeError(f"run aborted at step {k + 1}/{nsteps} (t={state.t:.6g}): {e}") from e
        if (k + 1) % cfg.output_every == 0 or k == nsteps - 1:
            record(state)

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
