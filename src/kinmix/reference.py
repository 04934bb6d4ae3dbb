"""Deterministic discrete-velocity solver for the full two-species BGK
system on an (x, v) grid.  First-order upwind transport + pointwise
exponential relaxation; used as a cross-validation oracle for the
micro-macro scheme, so clarity beats speed throughout.  On one cell (Nx=1)
there is no transport, and it is the homogeneous kinetic integrator of
`homogeneous.kinetic_homogeneous_run`.

A grid distribution reaches the moment layer only through its conserved
vector U = (<f>, <v f>, <v^2 f>) per cell (`conserved`), the vector the
finite-volume solver carries, and moments come back out of U through
`macrofv.moments_from_conserved` with its positivity check.  The cell
moments follow a conservative Heun update of U under
`macrofv.relaxation_source`, sub-stepped by `macrofv.relaxation_substeps`.
Discrete Maxwellians are renormalized (a 3x3 Hermite solve per cell on the
Gram matrix of `projection.hermite_gram`, which particle matching solves
against too) so their grid moments match the target moments exactly, which
keeps the conservation checks sharp on coarse velocity grids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .macrofv import CFLError, moments_from_conserved, relaxation_source, relaxation_substeps
from .model import MixtureParams, SpeciesMoments, exchange_quantities
from .projection import hermite_gram


@dataclass
class GridDistribution:
    """f1, f2 sampled on (Nx cells) x (Nv velocity nodes)."""

    f1: np.ndarray
    f2: np.ndarray
    grid: GridSpec
    t: float = 0.0


def conserved(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """U = (<f>, <v f>, <v^2 f>) per cell by trapezoid over the velocity
    nodes, shape (Nx, 3); a 1-D f is one cell and gives shape (3,)."""
    v, wq = grid.v_nodes, grid.v_weights
    return f @ np.stack([wq, wq * v, wq * v * v], axis=1)


def cellwise_moments(f: np.ndarray, grid: GridSpec, mass_ratio: float) -> SpeciesMoments:
    """(n, u, T) per cell from the conserved vector of f; a 1-D f is one
    cell and gives 0-d arrays."""
    return moments_from_conserved(conserved(f, grid), mass_ratio)


def discrete_maxwellian_rows(n, u, th, grid: GridSpec) -> np.ndarray:
    """Per-cell Maxwellian samples (Nx, Nv) with grid moments matched to
    (n, n u, n(th + u^2)) exactly via a batched 3x3 Hermite correction."""
    v, wq = grid.v_nodes, grid.v_weights
    n = np.atleast_1d(np.asarray(n, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    th = np.atleast_1d(np.asarray(th, dtype=float))
    h1 = (v[None, :] - u[:, None]) / np.sqrt(th)[:, None]
    M = (n / np.sqrt(2.0 * np.pi * th))[:, None] * np.exp(-0.5 * h1 * h1)
    A = hermite_gram(M, h1, lambda a: a @ wq)
    # target moments against (1, h1, h2) are (n, 0, 0); A's first row holds M's
    r = -A[:, 0, :]
    r[:, 0] += n
    c = np.linalg.solve(A, r[..., None])[..., 0]
    return M * (1.0 + c[:, 0, None] + c[:, 1, None] * h1 + c[:, 2, None] * (h1 * h1 - 1.0))


def _upwind_transport(f: np.ndarray, grid: GridSpec, dt: float) -> np.ndarray:
    v = grid.v_nodes
    cr = dt / grid.dx * v
    fm = np.roll(f, 1, axis=0)   # cell i-1
    fp = np.roll(f, -1, axis=0)  # cell i+1
    pos = np.maximum(cr, 0.0)
    neg = np.minimum(cr, 0.0)
    return f - pos * (f - fm) - neg * (fp - f)


def _heun_exchange(U1: np.ndarray, U2: np.ndarray, p: MixtureParams, dt: float):
    """Conservative Heun update of both species' conserved vectors over dt
    under `relaxation_source`, sub-stepped by `relaxation_substeps`;
    densities stay fixed.  Each stage evaluates the source at a single
    state, so total momentum/energy move only by round-off."""
    nsub = relaxation_substeps(dt, U1[:, 0], U2[:, 0], p)
    h = dt / nsub
    for _ in range(nsub):
        k1 = relaxation_source(U1, U2, p)
        k2 = relaxation_source(U1 + h * k1[0], U2 + h * k1[1], p)
        U1 = U1 + 0.5 * h * (k1[0] + k2[0])
        U2 = U2 + 0.5 * h * (k1[1] + k2[1])
    return U1, U2


def _relax(f1: np.ndarray, f2: np.ndarray, grid: GridSpec, p: MixtureParams, dt: float):
    """Pointwise exponential relaxation toward own + interaction Maxwellians,
    with the cell moments advanced conservatively and then re-pinned;
    returns the relaxed (f1, f2).  A non-positive or NaN cell density or
    temperature raises `PositivityError` naming the species."""
    mr2 = p.mass_ratio2
    U1, U2 = conserved(f1, grid), conserved(f2, grid)
    m1 = moments_from_conserved(U1, 1.0, "(species 1)")
    m2 = moments_from_conserved(U2, mr2, "(species 2)")
    ex = exchange_quantities(m1, m2, p)
    C1, C2 = _heun_exchange(U1, U2, p, dt)
    out = []
    for f, m, C, mr, n_other, eps, epst, u_cross, T_cross in (
        (f1, m1, C1, 1.0, m2.n, p.eps1, p.epst1, ex.u12, ex.T12),
        (f2, m2, C2, mr2, m1.n, p.eps2, p.epst2, ex.u21, ex.T21),
    ):
        a = p.nu12 * m.n / eps
        b = p.nu12 * n_other / epst
        lam = a + b
        Mbar = (
            a[:, None] * discrete_maxwellian_rows(m.n, m.u, m.T / mr, grid)
            + b[:, None] * discrete_maxwellian_rows(m.n, u_cross, T_cross / mr, grid)
        ) / lam[:, None]
        f = Mbar + (f - Mbar) * np.exp(-lam * dt)[:, None]
        # pin the grid moments to the conservative moment update C
        c, g = moments_from_conserved(C, mr), cellwise_moments(f, grid, mr)
        f = f + discrete_maxwellian_rows(c.n, c.u, c.T / mr, grid)
        out.append(f - discrete_maxwellian_rows(g.n, g.u, g.T / mr, grid))
    return tuple(out)


def dvm_step(state: GridDistribution, p: MixtureParams, dt: float) -> GridDistribution:
    """First-order splitting: upwind transport in x, then relaxation built
    from the post-transport moments."""
    grid = state.grid
    vmax = float(np.max(np.abs(grid.v_nodes)))
    if grid.Nx > 1 and dt > grid.dx / vmax:
        raise CFLError(f"dt={dt} violates upwind CFL: need dt <= {grid.dx / vmax}")
    # on one periodic cell the upwind differences vanish exactly: no transport
    f1, f2 = _relax(_upwind_transport(state.f1, grid, dt), _upwind_transport(state.f2, grid, dt), grid, p, dt)
    return GridDistribution(f1=f1, f2=f2, grid=grid, t=state.t + dt)


def dvm_run(state: GridDistribution, p: MixtureParams, dt: float, t_end: float) -> GridDistribution:
    nsteps = int(round(t_end / dt))
    for _ in range(nsteps):
        state = dvm_step(state, p, dt)
    return state
