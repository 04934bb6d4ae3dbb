"""Deterministic discrete-velocity solver for the full two-species BGK
system on an (x, v) grid.  First-order upwind transport + pointwise
exponential relaxation; used as a cross-validation oracle for the
micro-macro scheme.  On one cell (Nx=1)
there is no transport, and it is the homogeneous kinetic integrator of
`homogeneous.kinetic_homogeneous_run`.

A grid distribution reaches the moment layer only through its conserved
vector U = (<f>, <v f>, <v^2 f>) per cell (`conserved`), the vector the
finite-volume solver carries, and moments come back out of U through
`macrofv.moments_from_conserved` with its positivity check.  The cell
moments follow a conservative Heun update of U under
`macrofv.relaxation_source`, sub-stepped by `macrofv.relaxation_substeps`.
Each species relaxes through its `model.relaxations` view.  Discrete
Maxwellians are sampled by `projection.maxwellian_samples` and renormalized
(a 3x3 Hermite solve per cell on the Gram matrix of `projection.hermite_gram`,
which particle matching solves against too) so their grid moments match the
target moments exactly, which keeps the conservation checks sharp on coarse
velocity grids; the renormalized rows are evaluated by
`projection.eval_projection`, the evaluator of the particle path.

The step's (Nx, Nv) temporaries are buffers of a `grids.StepWorkspace` that
each state hands on to the next (`GridDistribution.work`), written with
`out=`; the arithmetic is the plain formulas', operation for operation, so a
buffer changes no bit of a result.  The buffers, each (Nx, Nv):

    "h1", "M", "scratch"    a discrete Maxwellian's h1, M and Gram products
    "f1", "f2"              the transported species
    "upwind"                an upwind difference, then the relaxed f
    "Mbar"                  the relaxation target

The arrays of a returned state are new; a step neither changes nor keeps a
reference to its input's.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, StepWorkspace, step_workspace
from .macrofv import CFLError, moments_from_conserved, relaxation_source, relaxation_substeps
from .model import MixtureParams, SpeciesMoments, exchange_quantities, relaxations
from .projection import eval_projection, hermite_gram, maxwellian_samples


@dataclass
class GridDistribution:
    """f1, f2 sampled on (Nx cells) x (Nv velocity nodes); `work` holds the
    step's buffers and is handed on from each state to the next."""

    f1: np.ndarray
    f2: np.ndarray
    grid: GridSpec
    t: float = 0.0
    work: StepWorkspace = field(default_factory=StepWorkspace, repr=False, compare=False)


def conserved(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """U = (<f>, <v f>, <v^2 f>) per cell by trapezoid over the velocity
    nodes, shape (Nx, 3); a 1-D f is one cell and gives shape (3,)."""
    v, wq = grid.v_nodes, grid.v_weights
    return f @ np.stack([wq, wq * v, wq * v * v], axis=1)


def cellwise_moments(f: np.ndarray, grid: GridSpec, mass_ratio: float) -> SpeciesMoments:
    """(n, u, T) per cell from the conserved vector of f; a 1-D f is one
    cell and gives 0-d arrays."""
    return moments_from_conserved(conserved(f, grid), mass_ratio)


def discrete_maxwellian_rows(n, u, th, grid: GridSpec, work: StepWorkspace | None = None) -> np.ndarray:
    """Per-cell Maxwellian samples (Nx, Nv) with grid moments matched to
    (n, n u, n(th + u^2)) exactly via a batched 3x3 Hermite correction; the
    result is a new array, the temporaries are `work`'s buffers."""
    v, wq = grid.v_nodes, grid.v_weights
    n, u, th = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in (n, u, th)))
    work = step_workspace(work)
    shape = (n.size, grid.Nv)
    h1 = work.buffer("h1", shape)
    M = maxwellian_samples(v, u, th, n, lambda a: a[:, None], h1, work.buffer("M", shape))
    A = hermite_gram(M, h1, lambda a: a @ wq, out=work.buffer("scratch", shape))
    # target moments against (1, h1, h2) are (n, 0, 0); A's first row holds M's
    r = -A[:, 0, :]
    r[:, 0] += n
    c = np.linalg.solve(A, r[..., None])[..., 0]
    # M (1 + c0 + c1 h1 + c2 (h1 h1 - 1)), on (1, h1, h1^2)
    coeffs = (1.0 + c[:, 0] - c[:, 2], c[:, 1], c[:, 2])
    return eval_projection(coeffs, h1, M, lambda a: a[:, None], np.empty(shape))


def _upwind_transport(f: np.ndarray, grid: GridSpec, dt: float, work: StepWorkspace, name: str) -> np.ndarray:
    """f - pos (f - f[i-1]) - neg (f[i+1] - f) on the periodic cells, into
    workspace buffer `name`."""
    cr = dt / grid.dx * grid.v_nodes
    pos = np.maximum(cr, 0.0)
    neg = np.minimum(cr, 0.0)
    d = work.buffer("upwind", f.shape)
    np.subtract(f[1:], f[:-1], out=d[1:])
    np.subtract(f[:1], f[-1:], out=d[:1])
    out = work.buffer(name, f.shape)
    np.multiply(pos, d, out=out)
    np.subtract(f, out, out=out)
    # f[i+1] - f[i] is d[i+1]
    d *= neg
    out[:-1] -= d[1:]
    out[-1] -= d[0]
    return out


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


def _relax(f1: np.ndarray, f2: np.ndarray, grid: GridSpec, p: MixtureParams, dt: float, work: StepWorkspace):
    """Pointwise exponential relaxation toward own + interaction Maxwellians,
    with the cell moments advanced conservatively and then re-pinned;
    returns the relaxed (f1, f2).  A non-positive or NaN cell density or
    temperature raises `PositivityError` naming the species."""
    U1, U2 = conserved(f1, grid), conserved(f2, grid)
    m1 = moments_from_conserved(U1, 1.0, "(species 1)")
    m2 = moments_from_conserved(U2, p.mass_ratio2, "(species 2)")
    views = relaxations(m1, m2, exchange_quantities(m1, m2, p), p)
    out = []
    for f, sp, C in zip((f1, f2), views, _heun_exchange(U1, U2, p, dt)):
        m, mr = sp.moments, sp.mr
        lam = sp.intra + sp.inter
        Mbar = work.buffer("Mbar", f.shape)
        fr = work.buffer("upwind", f.shape)
        np.multiply(sp.intra[:, None], discrete_maxwellian_rows(m.n, m.u, m.T / mr, grid, work), out=Mbar)
        np.multiply(sp.inter[:, None], discrete_maxwellian_rows(m.n, sp.u_cross, sp.T_cross / mr, grid, work), out=fr)
        Mbar += fr
        Mbar /= lam[:, None]
        # Mbar + (f - Mbar) e^{-lam dt}
        np.subtract(f, Mbar, out=fr)
        fr *= np.exp(-lam * dt)[:, None]
        fr += Mbar
        # pin the grid moments to the conservative moment update C
        c, g = moments_from_conserved(C, mr), cellwise_moments(fr, grid, mr)
        fr += discrete_maxwellian_rows(c.n, c.u, c.T / mr, grid, work)
        fr -= discrete_maxwellian_rows(g.n, g.u, g.T / mr, grid, work)
        out.append(fr.copy())
    return tuple(out)


def dvm_step(state: GridDistribution, p: MixtureParams, dt: float) -> GridDistribution:
    """First-order splitting: upwind transport in x, then relaxation built
    from the post-transport moments."""
    grid = state.grid
    vmax = float(np.max(np.abs(grid.v_nodes)))
    if grid.Nx > 1 and dt > grid.dx / vmax:
        raise CFLError(f"dt={dt} violates upwind CFL: need dt <= {grid.dx / vmax}")
    # on one periodic cell the upwind differences vanish exactly: no transport
    work = state.work
    f1 = _upwind_transport(state.f1, grid, dt, work, "f1")
    f2 = _upwind_transport(state.f2, grid, dt, work, "f2")
    f1, f2 = _relax(f1, f2, grid, p, dt, work)
    return GridDistribution(f1=f1, f2=f2, grid=grid, t=state.t + dt, work=work)
