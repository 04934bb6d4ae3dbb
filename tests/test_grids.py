import numpy as np

from kinmix.grids import GridSpec


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
