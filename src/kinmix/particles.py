"""Weighted-particle representation of the kinetic remainders.

Particles sample phase space uniformly and carry all the state in their
weights w = g * Lx * Lv / Np.  Transport pushes positions, the stiff part of
the source is integrated exactly (Duhamel), and a per-cell matching solve
keeps the discrete moments of the remainder at zero, which is what the
micro-macro decomposition requires of g.

The time step keeps each set sorted by cell (`sort_by_cell` after every
push), so a cell's particles form one contiguous segment: per-cell sums are
segment reductions (`np.add.reduceat`) and cell fields reach the particles
through `np.repeat`, each a single streaming pass.  The sort is stable, so the
particle order, and with it the order of every floating-point sum, depends
only on the seed and the step count: repeated runs with the same seed are
bit-reproducible.  Functions handed an unsorted set group it the same way
internally (`Cells`) and answer in the caller's order.  The time step builds
the grouping once per species (`sort_by_cell`) and hands it to every call
that needs it (`cells=`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .model import SpeciesMoments
from .projection import hermite_gram


@dataclass
class ParticleSet:
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    species: int = 1

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
    unsigned dtype that fits Nx, which numpy sorts by radix.
    """

    def __init__(self, grid: GridSpec, x: np.ndarray, idx: np.ndarray | None = None):
        if idx is None:
            idx = grid.cell_index(x)
        key = np.asarray(idx).astype(np.min_scalar_type(grid.Nx - 1), copy=False)
        self.order = None
        if key.size > 1 and not np.all(key[1:] >= key[:-1]):
            self.order = np.argsort(key, kind="stable")
            key = key[self.order]
        self.key = key
        starts = np.searchsorted(key, np.arange(grid.Nx, dtype=key.dtype))
        self.counts = np.diff(starts, append=key.size)
        filled = self.counts > 0
        # reduceat reads an empty segment as the element at its start, so
        # only filled cells are reduced and the others are zeroed
        self._filled = None if filled.all() else filled
        self._starts = starts if self._filled is None else starts[filled]

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
        """Per-cell field spread over the particles, in cell order."""
        return np.repeat(np.broadcast_to(np.asarray(field, dtype=float), self.counts.shape), self.counts)

    def expand(self, field) -> np.ndarray:
        """Per-cell field spread over the particles, in caller order."""
        return self.unsorted(self.repeat(field))


@dataclass
class LocalMaxwellian:
    """A species' cell Maxwellian at its particles' velocities, with the
    cell's scaled Hermite basis: h1 = (v - u)/sigma, h2 = h1^2 - 1 and
    M = n exp(-h1^2/2)/sqrt(2 pi theta), theta = sigma^2 = T/m."""

    h1: np.ndarray
    h2: np.ndarray
    M: np.ndarray


def cell_fields(Mk: SpeciesMoments, mass_ratio: float, Nx: int):
    """(n, u, theta = T/m) of a species as float arrays of shape (Nx,)."""
    n = np.broadcast_to(np.asarray(Mk.n, dtype=float), (Nx,))
    u = np.broadcast_to(np.asarray(Mk.u, dtype=float), (Nx,))
    th = np.broadcast_to(np.asarray(Mk.T, dtype=float) / mass_ratio, (Nx,))
    return n, u, th


def local_maxwellian(v: np.ndarray, cells: Cells, Mk: SpeciesMoments, mass_ratio: float) -> LocalMaxwellian:
    """Evaluate the cell Maxwellian of Mk at velocities v (caller order)."""
    n, u, th = cell_fields(Mk, mass_ratio, cells.counts.size)
    if not np.all(th > 0):
        raise ValueError("the cell Maxwellian requires T > 0 in every cell")
    h1 = cells.expand(u)
    np.subtract(v, h1, out=h1)
    h1 /= cells.expand(np.sqrt(th))
    h2 = np.square(h1)
    M = np.multiply(h2, -0.5)
    np.exp(M, out=M)
    M *= cells.expand(n / np.sqrt(2.0 * np.pi * th))
    h2 -= 1.0
    return LocalMaxwellian(h1=h1, h2=h2, M=M)


def init_particles(g0, grid: GridSpec, Np: int, seed, species: int = 1) -> ParticleSet:
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
    return ParticleSet(x=x, v=v, w=w, species=species)


def push(ps: ParticleSet, dt: float, grid: GridSpec) -> ParticleSet:
    """Free transport: x <- wrap(x + v dt); velocities and weights untouched."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    x = ps.v * dt
    x += ps.x
    return ParticleSet(x=grid.wrap(x, out=x), v=ps.v, w=ps.w, species=ps.species)


def sort_by_cell(ps: ParticleSet, grid: GridSpec):
    """Stable sort of a set into cell order.

    Returns (sorted set, its `Cells`); the set comes back unchanged, not
    copied, when it already is in cell order.
    """
    cells = Cells(grid, ps.x)
    if cells.order is not None:
        o = cells.order
        ps = ParticleSet(x=ps.x[o], v=ps.v[o], w=ps.w[o], species=ps.species)
        cells.order = None
    return ps, cells


def _weighted_sums(ps: ParticleSet, grid: GridSpec, idx, rows: int, cells: Cells | None) -> np.ndarray:
    """Per-cell sums of w v^j for j < rows, shape (rows, Nx)."""
    if cells is None:
        cells = Cells(grid, ps.x, idx)
    v, wk = cells.sorted(ps.v), cells.sorted(ps.w)
    out = np.empty((rows, grid.Nx))
    for j in range(rows):
        out[j] = cells.sum(wk)
        if j + 1 < rows:
            wk = wk * v if j == 0 else np.multiply(wk, v, out=wk)
    return out


def deposit(ps: ParticleSet, grid: GridSpec, idx: np.ndarray | None = None, cells: Cells | None = None) -> np.ndarray:
    """Per-cell NGP moments, shape (4, Nx): (<g>, <vg>, <v^2 g>, <v^3 g>)/dx.

    idx (the particles' cell indices) or cells (their grouping) spare the
    recomputation when the caller has either."""
    out = _weighted_sums(ps, grid, idx, 4, cells)
    out /= grid.dx
    return out


def cell_sums(ps: ParticleSet, grid: GridSpec, idx: np.ndarray | None = None) -> np.ndarray:
    """Raw per-cell sums (sum w, sum w v, sum w v^2), shape (3, Nx)."""
    return _weighted_sums(ps, grid, idx, 3, None)


def update_weights(
    ps: ParticleSet, source_eval, lam, dt: float, grid: GridSpec, t: float = 0.0, cells: Cells | None = None
) -> ParticleSet:
    """Exact exponential (Duhamel) weight update.

    dw/dt = -lam w + s with s frozen over the step gives
    w <- w e^{-lam dt} + (1 - e^{-lam dt})/lam * s; lam -> 0 degrades to
    forward Euler.  source_eval(x, v, t) is the non-stiff micro source,
    vectorized; lam is one damping rate per cell, shape (Nx,), or a scalar.
    The decay and gain factors are formed per cell and then spread over the
    cell's particles (cells: their grouping, built when omitted).
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0):
        raise ValueError("damping rate must be >= 0")
    if lam.ndim and lam.shape != (grid.Nx,):
        raise ValueError("damping rate must be a scalar or one rate per cell")
    lam = np.broadcast_to(lam, (grid.Nx,))
    s = np.asarray(source_eval(ps.x, ps.v, t), dtype=float)
    decay = np.exp(-lam * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(lam > 0.0, -np.expm1(-lam * dt) / np.where(lam > 0.0, lam, 1.0), dt)
    gain = gain * (grid.Lx * grid.Lv / ps.Np)
    if cells is None:
        cells = Cells(grid, ps.x)
    decay, gain = cells.expand(decay), cells.expand(gain)
    gain *= s
    w = np.multiply(ps.w, decay, out=decay)
    w += gain
    return ParticleSet(x=ps.x, v=ps.v, w=w, species=ps.species)


def match(
    ps: ParticleSet,
    grid: GridSpec,
    Mk: SpeciesMoments,
    mass_ratio: float,
    idx: np.ndarray | None = None,
    local: LocalMaxwellian | None = None,
    cells: Cells | None = None,
):
    """Per-cell weight correction zeroing the discrete sums of m(v).

    Subtracts c(v) = [a0 + a1 v + a2 v^2] M_k(v) * Lx Lv / Np sampled at the
    cell's particles, with (a0, a1, a2) from an exact 3x3 solve, so that
    sum w, sum w v, sum w v^2 vanish per cell.  Internally the solve uses the
    scaled Hermite basis of the cell Maxwellian to keep the system
    well-conditioned; one refinement pass mops up round-off.  `local` is
    that basis at the particles (caller order) when the caller already has
    it, from `local_maxwellian` with the same Mk; `cells` is the particles'
    grouping, built from idx (or x) when omitted.

    Returns (matched ParticleSet, number of cells skipped as unsolvable); the
    weights come back in the caller's particle order.
    """
    _, _, th = cell_fields(Mk, mass_ratio, grid.Nx)
    if not np.all(th > 0):
        raise ValueError("matching requires T > 0 in every cell")

    if cells is None:
        cells = Cells(grid, ps.x, idx)
    if local is None:
        local = local_maxwellian(ps.v, cells, Mk, mass_ratio)
    h1, h2, M = (cells.sorted(a) for a in (local.h1, local.h2, local.M))
    w = ps.w.copy() if cells.order is None else ps.w[cells.order]

    # gram matrix of the basis (1, h1, h2) under the empirical Maxwellian
    # measure; the weight-relation factor Lx Lv / Np cancels out of the
    # correction, so it is left out of both the matrix and the correction
    A = hermite_gram(M, h1, cells.sum)

    counts = cells.counts
    scale = np.abs(A).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        det_ok = np.abs(np.linalg.det(A)) > 1e-10 * np.where(scale > 0, scale, 1.0) ** 3
    good = (counts >= 3) & det_ok
    # empty cells have nothing to match; only populated unsolvable cells count
    skipped = int(np.count_nonzero(~good & (counts > 0)))

    if np.any(good):
        t1 = np.empty_like(w)
        for _ in range(2):  # second pass removes solve round-off
            b = np.empty((grid.Nx, 3))
            b[:, 0] = cells.sum(w)
            b[:, 1] = cells.sum(np.multiply(w, h1, out=t1))
            b[:, 2] = cells.sum(np.multiply(w, h2, out=t1))
            # unsolvable cells keep a = 0, so their weights stay untouched
            a = np.zeros((grid.Nx, 3))
            a[good] = np.linalg.solve(A[good], b[good][..., None])[..., 0]
            corr = cells.repeat(a[:, 1])
            corr *= h1
            corr += cells.repeat(a[:, 0])
            np.multiply(cells.repeat(a[:, 2]), h2, out=t1)
            corr += t1
            corr *= M
            w -= corr
            del corr

    return ParticleSet(x=ps.x, v=ps.v, w=cells.unsorted(w), species=ps.species), skipped
