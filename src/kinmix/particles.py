"""Weighted-particle representation of the kinetic remainders.

Particles sample phase space uniformly and carry all the state in their
weights w = g * Lx * Lv / Np.  Transport pushes positions, the stiff part of
the source is integrated exactly (Duhamel), and a per-cell matching solve
keeps the discrete moments of the remainder at zero, which is what the
micro-macro decomposition requires of g.  The matching correction, like the
micro source, is the cell Maxwellian (`projection.maxwellian_samples`) times
a per-cell polynomial in h1, evaluated by `projection.eval_projection`.

The time step keeps each set sorted by cell (`sort_by_cell` after every
push), so a cell's particles form one contiguous segment: per-cell sums are
segment reductions (`np.add.reduceat`) and cell fields reach the particles
through `np.repeat`, each a single streaming pass.  A grouping of one cell
spreads nothing: it hands out the cell's value, which numpy broadcasts over
the particles with the same operation per element, and on a one-cell grid
it computes no cell index either.  The sort is stable, so the
particle order, and with it the order of every floating-point sum, depends
only on the seed and the step count: repeated runs with the same seed are
bit-reproducible.  Functions handed an unsorted set group it the same way
internally (`Cells`) and answer in the caller's order.  The time step builds
the grouping once per species (`sort_by_cell`) and hands it to every call
that needs it (`cells=`).

The time step relaxes a species block by block (`blocks`): a block is a run
of whole consecutive cells that together hold at most `BLOCK` particles, or a
single larger cell.  Every per-particle operation is elementwise and every
per-cell sum, determinant and solve belongs to one cell, so the split changes
no bit of a result; it keeps each pass over a block's arrays in cache.  A
block's grouping covers the cells `Cells.span` of the grid, and the functions
handed one read per-cell inputs for those cells only.

The particle temporaries of a step live in a `grids.StepWorkspace` that the
run keeps across steps, and are written with `out=`: after the first step a
step allocates little beyond the arrays of the new state.  The buffers are
sized by the block, not by the set.  Every function that takes a workspace
(`work=`) also runs without one, and then allocates its buffers.  The step
relaxes one block after the other, and one species after the other, through
the same buffers, so one workspace serves both species and grows to the
largest block.  Buffers whose lifetimes do not overlap share storage:

    "h1", "M"    the cell Maxwellian at the particles (source, update, match)
    "source"     the micro source, then the matching correction
    "weights"    the updated weights, until the matching has read them
    "scratch"    the cross-Maxwellian term, then the gain times the source,
                 then the products that are summed
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, StepWorkspace, step_workspace
from .model import SpeciesMoments
from .projection import eval_projection, hermite_gram, maxwellian_samples

# relative tolerance of the matching residual: a cell is re-solved when a
# post-match sum exceeds this multiple of the summed magnitudes of its terms.
# Pairwise summation of n terms errs by at most ~log2(n) eps times that
# scale (17 eps at n = 1e5), and well-conditioned cells read about 1 eps.
MATCH_RTOL = 64.0 * np.finfo(float).eps

# most particles in one block of the relaxation step (`blocks`): a block's
# float buffers are then 512 KB each, so one pass over a block stays in a
# core's L2 cache.  Measured at 2 x 5e5 particles: 2^15 to 2^16 is fastest,
# 2^14 pays more per-block Python overhead than it saves, above 2^17 gains nothing
BLOCK = 1 << 16


@dataclass
class ParticleSet:
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if not (self.x.shape == self.v.shape == self.w.shape):
            raise ValueError("x, v, w must share one length")

    @property
    def Np(self) -> int:
        return self.x.size


class Cells:
    """One particle set grouped by cell.

    `order` permutes the caller's particles into cell order (stable; None
    when they already are in it).  In cell order, cell c holds counts[c]
    consecutive particles, and `key` holds their cell indices in the smallest
    unsigned dtype that fits Nx, which numpy sorts by radix.  `span` is the
    slice of the grid's cells that the grouping covers, all of them or one
    block's (`blocks`); counts and per-cell results run over those cells.
    On a one-cell grid every particle is in cell 0 whatever its x, so
    neither x nor idx is read: the key is zero and the set is in order.
    """

    def __init__(self, grid: GridSpec, x: np.ndarray, idx: np.ndarray | None = None):
        self.order = None
        if grid.Nx == 1:  # every particle is in cell 0, whatever its x
            n = np.size(x)
            self._segments(slice(0, 1), np.zeros(n, dtype=np.uint8), np.zeros(1, dtype=np.intp), np.array([n]))
            return
        if idx is None:
            idx = grid.cell_index(x)
        key = np.asarray(idx).astype(np.min_scalar_type(grid.Nx - 1), copy=False)
        if key.size > 1 and not np.all(key[1:] >= key[:-1]):
            self.order = np.argsort(key, kind="stable")
            key = key[self.order]
        starts = np.searchsorted(key, np.arange(grid.Nx, dtype=key.dtype))
        self._segments(slice(0, grid.Nx), key, starts, np.diff(starts, append=key.size))

    def _segments(self, span: slice, key: np.ndarray, starts: np.ndarray, counts: np.ndarray):
        self.span, self.key, self.counts = span, key, counts
        filled = counts > 0
        # reduceat reads an empty segment as the element at its start, so
        # only filled cells are reduced and the others are zeroed
        self._filled = None if filled.all() else filled
        self._starts = starts if self._filled is None else starts[filled]

    def _block(self, c0: int, c1: int, p0: int, p1: int) -> "Cells":
        """The grouping of cells c0..c1-1 of a whole-grid grouping in cell
        order, whose particles are p0..p1-1."""
        b = Cells.__new__(Cells)
        b.order = None
        counts = self.counts[c0:c1]
        b._segments(slice(c0, c1), self.key[p0:p1], np.cumsum(counts) - counts, counts)
        return b

    def sorted(self, a: np.ndarray) -> np.ndarray:
        """Per-particle array in caller order -> cell order (no copy if sorted)."""
        return a if self.order is None else a[self.order]

    def unsorted(self, a: np.ndarray) -> np.ndarray:
        """Per-particle array in cell order -> caller order."""
        if self.order is None:
            return a
        out = np.empty_like(a)
        out[self.order] = a
        return out

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Per-cell sums of a per-particle array given in cell order."""
        if self._filled is None:
            return np.add.reduceat(a, self._starts)
        out = np.zeros(self.counts.size)
        if self._starts.size:
            out[self._filled] = np.add.reduceat(a, self._starts)
        return out

    def repeat(self, field) -> np.ndarray:
        """Per-cell field spread over the particles, in cell order.  On one
        cell that is the field itself, shape (1,), which numpy broadcasts over
        the particles with the same operation per element; it is read-only."""
        field = np.broadcast_to(np.asarray(field, dtype=float), self.counts.shape)
        return field if self.counts.size == 1 else np.repeat(field, self.counts)

    def expand(self, field) -> np.ndarray:
        """Per-cell field spread over the particles, in caller order."""
        return self.unsorted(self.repeat(field))


@dataclass
class LocalMaxwellian:
    """A species' cell Maxwellian at its particles' velocities, with the
    cell's scaled velocity h1 = (v - u)/sigma (the Hermite basis is
    (1, h1, h1^2 - 1)) and M = n exp(-h1^2/2)/sqrt(2 pi theta),
    theta = sigma^2 = T/m."""

    h1: np.ndarray
    M: np.ndarray


def cell_fields(Mk: SpeciesMoments, mass_ratio: float, Nx: int):
    """(n, u, theta = T/m) of a species as float arrays of shape (Nx,)."""
    n = np.broadcast_to(np.asarray(Mk.n, dtype=float), (Nx,))
    u = np.broadcast_to(np.asarray(Mk.u, dtype=float), (Nx,))
    th = np.broadcast_to(np.asarray(Mk.T, dtype=float) / mass_ratio, (Nx,))
    return n, u, th


def local_maxwellian(
    v: np.ndarray, cells: Cells, Mk: SpeciesMoments, mass_ratio: float, work: StepWorkspace | None = None
) -> LocalMaxwellian:
    """Evaluate the cell Maxwellian of Mk at velocities v (caller order),
    into the workspace's "h1" and "M" buffers."""
    n, u, th = cell_fields(Mk, mass_ratio, cells.counts.size)
    if not np.all(th > 0):
        raise ValueError("the cell Maxwellian requires T > 0 in every cell")
    work = step_workspace(work)
    h1 = work.buffer("h1", v.size)
    return LocalMaxwellian(h1=h1, M=maxwellian_samples(v, u, th, n, cells.expand, h1, work.buffer("M", v.size)))


def init_particles(g0, grid: GridSpec, Np: int, seed) -> ParticleSet:
    """Uniform phase-space sampling; w = g0(x, v) * Lx * Lv / Np.

    g0 must be vectorized over (x, v).  seed is an int or SeedSequence;
    identical seeds give bit-identical sets.
    """
    if Np <= 0:
        raise ValueError("Np must be positive")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, grid.Lx, Np)
    v = rng.uniform(-0.5 * grid.Lv, 0.5 * grid.Lv, Np)
    w = np.asarray(g0(x, v), dtype=float) * (grid.Lx * grid.Lv / Np)
    if w.shape != x.shape:
        w = np.broadcast_to(w, x.shape).copy()
    return ParticleSet(x=x, v=v, w=w)


def push(ps: ParticleSet, dt: float, grid: GridSpec) -> ParticleSet:
    """Free transport: x <- wrap(x + v dt); velocities and weights untouched."""
    if not dt >= 0:
        raise ValueError("dt must be >= 0")
    x = ps.v * dt
    x += ps.x
    return ParticleSet(x=grid.wrap(x, out=x), v=ps.v, w=ps.w)


def sort_by_cell(ps: ParticleSet, grid: GridSpec):
    """Stable sort of a set into cell order.

    Returns (sorted set, its `Cells`); the set comes back unchanged, not
    copied, when it already is in cell order.
    """
    cells = Cells(grid, ps.x)
    if cells.order is not None:
        o = cells.order
        ps = ParticleSet(x=np.take(ps.x, o), v=np.take(ps.v, o), w=np.take(ps.w, o))
        cells.order = None
    return ps, cells


def blocks(ps: ParticleSet, cells: Cells) -> list:
    """A cell-ordered set and its grouping (`sort_by_cell`) split into the
    blocks of the relaxation step: runs of whole consecutive cells that
    together hold at most BLOCK particles, or one larger cell, with any empty
    cells around it.  Returns (particle slice, block set, block `Cells`)
    triples in cell order; a set within BLOCK, or on one cell, is one block:
    (slice(None), ps, cells) itself."""
    counts = cells.counts
    if ps.Np <= BLOCK or counts.size == 1:
        return [(slice(None), ps, cells)]
    ends = np.cumsum(counts)
    out = []
    c0 = 0
    while c0 < counts.size:
        p0 = int(ends[c0] - counts[c0])
        # as many cells as fit, but at least up to the first filled one
        c1 = max(int(np.searchsorted(ends, p0 + BLOCK, "right")), int(np.searchsorted(ends, p0, "right")) + 1)
        if ends[c1 - 1] == ps.Np:  # only empty cells follow
            c1 = counts.size
        p1 = int(ends[c1 - 1])
        sl = slice(p0, p1)
        out.append((sl, ParticleSet(x=ps.x[sl], v=ps.v[sl], w=ps.w[sl]), cells._block(c0, c1, p0, p1)))
        c0 = c1
    return out


def _weighted_sums(ps: ParticleSet, grid: GridSpec, rows: int, cells: Cells | None) -> np.ndarray:
    """Per-cell sums of w v^j for j < rows, shape (rows, Nx)."""
    if cells is None:
        cells = Cells(grid, ps.x)
    v, wk = cells.sorted(ps.v), cells.sorted(ps.w)
    out = np.empty((rows, grid.Nx))
    for j in range(rows):
        out[j] = cells.sum(wk)
        if j + 1 < rows:
            wk = wk * v if j == 0 else np.multiply(wk, v, out=wk)
    return out


def deposit(ps: ParticleSet, grid: GridSpec, cells: Cells | None = None) -> np.ndarray:
    """Per-cell NGP moments, shape (4, Nx): (<g>, <vg>, <v^2 g>, <v^3 g>)/dx;
    cells (the particles' grouping) spares regrouping when the caller has it."""
    out = _weighted_sums(ps, grid, 4, cells)
    out /= grid.dx
    return out


def cell_sums(ps: ParticleSet, grid: GridSpec) -> np.ndarray:
    """Raw per-cell sums (sum w, sum w v, sum w v^2), shape (3, Nx)."""
    return _weighted_sums(ps, grid, 3, None)


def update_weights(
    ps: ParticleSet,
    source_eval,
    lam,
    dt: float,
    grid: GridSpec,
    volume: float,
    cells: Cells | None = None,
    work: StepWorkspace | None = None,
) -> ParticleSet:
    """Exact exponential (Duhamel) weight update.

    dw/dt = -lam w + s with s frozen over the step gives
    w <- w e^{-lam dt} + (1 - e^{-lam dt})/lam * s; lam -> 0 degrades to
    forward Euler.  source_eval(x, v) is the non-stiff micro source,
    vectorized; lam is one damping rate per cell of `cells` (their grouping,
    built when omitted), or a scalar.  volume is the phase-space volume a
    particle of the species' whole set stands for, Lx Lv / Np, which turns
    the source into weight.  The decay and gain factors are formed per cell
    and then spread over the cell's particles.  The new weights are the
    workspace's "weights" buffer (a new array without `work`), which the
    next update overwrites; the gain times the source goes into its
    "scratch" buffer, so the array source_eval returns is left as it was.
    """
    if cells is None:
        cells = Cells(grid, ps.x)
    nc = cells.counts.size
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0):
        raise ValueError("damping rate must be >= 0")
    if lam.ndim and lam.shape != (nc,):
        raise ValueError("damping rate must be a scalar or one rate per cell")
    lam = np.broadcast_to(lam, (nc,))
    s = np.asarray(source_eval(ps.x, ps.v), dtype=float)
    decay = np.exp(-lam * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(lam > 0.0, -np.expm1(-lam * dt) / np.where(lam > 0.0, lam, 1.0), dt)
    gain = gain * volume
    work = step_workspace(work)
    w = np.multiply(ps.w, cells.expand(decay), out=work.buffer("weights", ps.Np))
    w += np.multiply(cells.expand(gain), s, out=work.buffer("scratch", ps.Np))
    return ParticleSet(x=ps.x, v=ps.v, w=w)


def _hermite_sums(w: np.ndarray, h1: np.ndarray, reduce, tmp: np.ndarray, with_scale: bool = False):
    """Sums of w against the basis (1, h1, h1^2 - 1), shape (..., 3), with
    `reduce` summing samples per cell and tmp as the one scratch array.

    with_scale adds bounds on the summed magnitudes of each sum's terms,
    (S|w|, sqrt(S|w| S|w|h1^2), S|w|h1^2 + S|w|): the scale of its round-off.
    """
    s0 = reduce(w)
    t = np.multiply(w, h1, out=tmp)
    s1 = reduce(t)
    t *= h1
    s2 = reduce(t)
    sums = np.stack([s0, s1, s2 - s0], axis=-1)
    if not with_scale:
        return sums
    a2 = reduce(np.abs(t, out=t))
    a0 = reduce(np.abs(w, out=t))
    return sums, np.stack([a0, np.sqrt(a0 * a2), a2 + a0], axis=-1)


def match(
    ps: ParticleSet,
    grid: GridSpec,
    Mk: SpeciesMoments,
    mass_ratio: float,
    idx: np.ndarray | None = None,
    local: LocalMaxwellian | None = None,
    cells: Cells | None = None,
    work: StepWorkspace | None = None,
):
    """Per-cell weight correction zeroing the discrete sums of m(v).

    Subtracts c(v) = [a0 + a1 v + a2 v^2] M_k(v) * Lx Lv / Np sampled at the
    cell's particles, with (a0, a1, a2) from an exact 3x3 solve, so that
    sum w, sum w v, sum w v^2 vanish per cell.  Internally the solve uses the
    scaled Hermite basis of the cell Maxwellian to keep the system
    well-conditioned.  Each cell is solved once; the post-match sums are
    then measured, and only a cell whose residual exceeds MATCH_RTOL times
    the round-off scale of its sums is re-solved against that residual.
    `local` is that basis at the particles (caller order)
    when the caller already has it, from `local_maxwellian` with the same
    Mk; `cells` is the particles' grouping, built from idx (or x) when
    omitted, and Mk holds the moments of its cells.  idx stays although
    `cells` carries the same indices: the benchmark's traced runs count the
    populated cells from it.

    Returns (matched ParticleSet, number of cells skipped as unsolvable,
    largest post-match per-cell residual of a solved cell, number of
    re-solved cells); the weights come back newly allocated, in the caller's
    particle order.
    """
    if cells is None:
        cells = Cells(grid, ps.x, idx)
    counts = cells.counts
    _, _, th = cell_fields(Mk, mass_ratio, counts.size)
    if not np.all(th > 0):
        raise ValueError("matching requires T > 0 in every cell")

    work = step_workspace(work)
    if local is None:
        local = local_maxwellian(ps.v, cells, Mk, mass_ratio, work)
    h1, M, w = (cells.sorted(a) for a in (local.h1, local.M, ps.w))
    tmp = work.buffer("scratch", w.size)

    # gram matrix of the basis (1, h1, h2) under the empirical Maxwellian
    # measure; the weight-relation factor Lx Lv / Np cancels out of the
    # correction, so it is left out of both the matrix and the correction
    A = hermite_gram(M, h1, cells.sum, out=tmp)

    scale = np.abs(A).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        det_ok = np.abs(np.linalg.det(A)) > 1e-10 * np.where(scale > 0, scale, 1.0) ** 3
    good = (counts >= 3) & det_ok
    # empty cells have nothing to match; only populated unsolvable cells count
    skipped = int(np.count_nonzero(~good & (counts > 0)))

    # unsolvable cells keep a = 0, so their weights stay untouched
    a = np.zeros((counts.size, 3))
    a[good] = np.linalg.solve(A[good], _hermite_sums(w, h1, cells.sum, tmp)[good][..., None])[..., 0]
    corr = eval_projection((a[:, 0] - a[:, 2], a[:, 1], a[:, 2]), h1, M, cells.repeat, work.buffer("source", w.size))
    out = np.subtract(w, corr)

    r, roundoff = _hermite_sums(out, h1, cells.sum, tmp, with_scale=True)
    refine = np.flatnonzero(good & np.any(np.abs(r) > MATCH_RTOL * roundoff, axis=1))
    if refine.size:
        a = np.zeros((counts.size, 3))
        a[refine] = np.linalg.solve(A[refine], r[refine][..., None])[..., 0]
        out -= eval_projection((a[:, 0] - a[:, 2], a[:, 1], a[:, 2]), h1, M, cells.repeat, corr)
        r = _hermite_sums(out, h1, cells.sum, tmp)

    matched = ParticleSet(x=ps.x, v=ps.v, w=cells.unsorted(out))
    return matched, skipped, float(np.abs(r[good]).max(initial=0.0)), int(refine.size)
