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
    # an array inside [0, Lx) divides straight into the cell index, any
    # other takes floor and mod: both give np.mod(np.floor(x / dx), Nx) bit
    # for bit, each edge value alone and among others.  On Lx = 1.171,
    # Nx = 257, nextafter(Lx, 0) / dx rounds up to Nx, so that cell is 0.
    for Nx in (1, 16, 255, 256, 257):
        for Lx in (4 * np.pi, 1.171):
            grid = GridSpec(Lx=Lx, Nx=Nx)
            rounds_up = np.nextafter(Lx, 0.0) / grid.dx == Nx
            assert rounds_up == (Nx == 257 and Lx == 1.171)
            edges = np.arange(grid.Nx + 1) * grid.dx
            x = np.concatenate([
                [-0.0, 0.0, np.nextafter(Lx, 0.0), Lx, np.nextafter(Lx, np.inf), 2.0 * Lx, 2.5 * Lx, 7.0 * Lx],
                [-5e-17, -grid.dx, -Lx, -1e-300, -2.5 * Lx],
                edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
            ])
            inside = np.random.default_rng(Nx).uniform(0.0, Lx, 2000)
            for xs in [x, inside, np.concatenate([inside, x]), *x[:, None]]:
                got = grid.cell_index(xs)
                assert got.dtype == np.intp
                assert np.array_equal(got, np.mod(np.floor(xs / grid.dx), Nx).astype(np.intp))
            assert grid.cell_index(np.array([-0.0]))[0] == 0
            assert grid.cell_index(np.array([np.nextafter(Lx, 0.0)]))[0] == (0 if rounds_up else Nx - 1)


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
