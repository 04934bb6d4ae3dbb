"""Property test of `particles.sort_by_cell`, the one code that puts a set
into cell order: on any grid and any wrapped positions, among them cell
edges, Lx - ulp and -0.0, it returns a stable row permutation of the set,
in non-decreasing cell index, with the grouping counts of a histogram, and
hands its own output back unchanged."""
import numpy as np
from hypothesis import given, settings, strategies as st

from kinmix.grids import GridSpec
from kinmix.particles import ParticleSet, sort_by_cell


@st.composite
def grids_and_positions(draw):
    """A grid (Nx = 1, a few cells, or more than a uint8 key holds) and
    positions in [0, Lx): uniform draws mixed with cell edges k dx, their
    neighbours one ulp away, 0.0, -0.0 and Lx - ulp."""
    Nx = draw(st.sampled_from([1, 2, 3, 7, 128, 300]))
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
    assert np.array_equal(regrouped.counts, cells.counts) and np.array_equal(regrouped.key, cells.key)
