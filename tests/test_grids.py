import numpy as np
import pytest

from kinmix.grids import GridSpec


@pytest.mark.parametrize("field,value", [("Lx", 0.0), ("Lx", np.nan), ("Lv", -1.0), ("Lv", np.nan)])
def test_nonpositive_or_nan_domain_length_rejected(field, value):
    with pytest.raises(ValueError, match="domain lengths must be positive"):
        GridSpec(**{field: value})


def test_wrap_equals_mod():
    grid = GridSpec(Lx=4 * np.pi, Nx=16)
    rng = np.random.default_rng(3)
    edges = [-grid.Lx, -1e-300, 0.0, grid.Lx, np.nextafter(2 * grid.Lx, 0.0), -5e-17]
    for reach in (1.0, 3.0):  # within one period of the box, and far beyond it
        x = np.concatenate([rng.uniform(-reach * grid.Lx, (1 + reach) * grid.Lx, 4000), edges])
        want = np.mod(x, grid.Lx)
        assert np.array_equal(grid.wrap(x), want)
        buf = x.copy()
        assert grid.wrap(buf, out=buf) is buf
        assert np.array_equal(buf, want)


def test_cell_index_periodic_for_any_position():
    grid = GridSpec(Lx=4 * np.pi, Nx=16)
    x = np.random.default_rng(4).uniform(-3 * grid.Lx, 3 * grid.Lx, 4000)
    want = np.floor(x / grid.dx).astype(np.int64) % grid.Nx
    assert np.array_equal(grid.cell_index(x), want)
    assert np.array_equal(grid.cell_index(grid.wrap(x)), want)
    assert grid.cell_index(np.array([grid.Lx]))[0] == 0


def test_cell_index_at_edges_matches_floor_mod():
    grid = GridSpec(Lx=4 * np.pi, Nx=16)
    edges = np.arange(grid.Nx + 1) * grid.dx
    x = np.concatenate([
        [-0.0, 0.0, np.nextafter(grid.Lx, 0.0), grid.Lx, np.nextafter(grid.Lx, np.inf), 2.5 * grid.Lx],
        [-5e-17, -grid.dx, -grid.Lx, -1e-300],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ])
    want = np.mod(np.floor(x / grid.dx), grid.Nx).astype(np.intp)
    assert np.array_equal(grid.cell_index(x), want)
    # in-range input needs no modulo; it must agree element by element
    inside = x[(x / grid.dx >= 0) & (x / grid.dx < grid.Nx)]
    assert np.array_equal(grid.cell_index(inside), np.floor(inside / grid.dx).astype(np.intp))
    assert grid.cell_index(np.array([-0.0]))[0] == 0
    assert grid.cell_index(np.array([np.nextafter(grid.Lx, 0.0)]))[0] == grid.Nx - 1


def test_node_arrays_cached_read_only_and_equal_to_their_formulas():
    grid = GridSpec(Lx=3.0, Nx=6, Lv=8.0, Nv=9)
    dv = grid.Lv / (grid.Nv - 1)
    edges = np.linspace(-4.0, 4.0, grid.Nv + 1)
    formulas = {
        "x_centers": (np.arange(grid.Nx) + 0.5) * grid.dx,
        "v_nodes": np.linspace(-4.0, 4.0, grid.Nv),
        "v_weights": np.concatenate([[0.5 * dv], np.full(grid.Nv - 2, dv), [0.5 * dv]]),
        "v_bin_edges": edges,
        "v_bin_centers": 0.5 * (edges[:-1] + edges[1:]),
    }
    for name, want in formulas.items():
        a = getattr(grid, name)
        assert getattr(grid, name) is a
        assert np.array_equal(a, want)
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # the cache is per grid: an equal grid is equal, and builds its own arrays
    other = GridSpec(Lx=3.0, Nx=6, Lv=8.0, Nv=9)
    assert other == grid and hash(other) == hash(grid)
    assert other.v_nodes is not grid.v_nodes and np.array_equal(other.v_nodes, grid.v_nodes)
