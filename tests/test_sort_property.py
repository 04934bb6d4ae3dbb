"""Property tests of `particles.sort_by_cell`, the one code that puts a set
into cell order and groups it: on any grid and any wrapped positions, among
them cell edges, Lx - ulp and -0.0, it returns a stable row permutation of
the set, in non-decreasing cell index, with the grouping counts of a
histogram, and hands its own output back unchanged; and of
`particles.blocks`, whose groupings tile the grid's."""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import kinmix.particles as particles
from kinmix.grids import GridSpec
from kinmix.particles import ParticleSet, blocks, sort_by_cell


@st.composite
def grids_and_positions(draw, sizes=(1, 2, 3, 7, 128, 300)):
    """A grid with Nx drawn from `sizes` (by default Nx = 1, a few cells, or
    more than a uint8 key holds) and positions in [0, Lx): uniform draws
    mixed with cell edges k dx, their neighbours one ulp away, 0.0, -0.0 and
    Lx - ulp."""
    Nx = draw(st.sampled_from(sizes))
    Lx = draw(st.sampled_from([1.0, 3.0, 4.0 * np.pi, 0.1]))
    grid = GridSpec(Lx=Lx, Nx=Nx, Nv=8)
    top = np.nextafter(Lx, 0.0)
    edge = st.integers(0, Nx - 1).map(lambda k: k * grid.dx)
    special = st.one_of(
        edge,
        edge.map(lambda e: float(np.nextafter(e, Lx))),
        edge.map(lambda e: min(float(np.nextafter(e, 0.0)), top) if e > 0.0 else 0.0),
        st.sampled_from([0.0, -0.0, float(top)]),
    )
    uniform = st.floats(0.0, float(top), allow_nan=False)
    x = draw(st.lists(st.one_of(special, uniform), min_size=0, max_size=200))
    return grid, np.array(x, dtype=float)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(grids_and_positions(), st.integers(0, 2**32 - 1))
def test_sort_by_cell_is_a_stable_permutation_into_cell_order(case, seed):
    grid, x = case
    n = x.size
    v = np.random.default_rng(seed).normal(size=n)
    w = np.arange(n, dtype=float)  # each row's original position
    ps = ParticleSet(x=x, v=v, w=w)
    out, cells = sort_by_cell(ps, grid)

    # a row permutation of (x, v, w), bit for bit (-0.0 included)
    perm = out.w.astype(np.intp)
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert np.array_equal(bits(out.x), bits(x[perm])) and np.array_equal(bits(out.v), bits(v[perm]))
    idx = grid.cell_index(x)
    # stable: within a cell the input order is kept
    assert np.array_equal(perm, np.argsort(idx, kind="stable"))
    assert np.all(np.diff(grid.cell_index(out.x)) >= 0)
    assert np.array_equal(cells.counts, np.bincount(idx, minlength=grid.Nx))
    assert cells.span == slice(0, grid.Nx)

    # its own output comes back as it is
    again, regrouped = sort_by_cell(out, grid)
    assert again is out
    assert np.array_equal(regrouped.counts, cells.counts)


def random_set(x, seed):
    v = np.random.default_rng(seed).normal(size=x.size)
    return ParticleSet(x=x, v=v, w=np.arange(x.size, dtype=float))


@settings(max_examples=200, deadline=None)
@given(grids_and_positions(sizes=(1, 2, 255, 256, 257)), st.integers(0, 2**32 - 1))
def test_grouping_counts_are_the_cell_histogram(case, seed):
    # Nx - 1 = 255 is the largest index of a uint8 key and Nx = 256 the
    # first grid that needs a uint16 one; the drawn sets include empty ones
    grid, x = case
    cells = sort_by_cell(random_set(x, seed), grid)[1]
    assert np.array_equal(cells.counts, np.bincount(grid.cell_index(x), minlength=grid.Nx))


@settings(max_examples=200, deadline=None)
@given(grids_and_positions(), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_blocks_tile_the_grid(case, limit, seed):
    # blocks of at most `limit` particles (or one larger cell): their
    # groupings cover consecutive cells, and their particle slices
    # consecutive particles, of the whole set's grouping
    grid, x = case
    ps, cells = sort_by_cell(random_set(x, seed), grid)
    with mock.patch.object(particles, "BLOCK", limit):
        parts = blocks(ps, cells)
    assert parts[0][2].span.start == 0 and parts[-1][2].span.stop == grid.Nx
    for (_, _, a), (_, _, b) in zip(parts, parts[1:]):
        assert a.span.stop == b.span.start
    assert np.array_equal(np.concatenate([cb.counts for _, _, cb in parts]), cells.counts)
    starts = np.cumsum([0] + [cb.counts.sum() for _, _, cb in parts])
    for (sl, psb, cb), p0, p1 in zip(parts, starts, starts[1:]):
        assert cb.counts.size == cb.span.stop - cb.span.start
        assert psb.Np == cb.counts.sum() and np.array_equal(psb.w, ps.w[p0:p1]) and np.array_equal(ps.w[sl], psb.w)
        assert psb.Np <= limit or np.count_nonzero(cb.counts) == 1
