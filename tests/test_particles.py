import numpy as np
import pytest

from kinmix.grids import GridSpec
from kinmix.model import SpeciesMoments
from kinmix.particles import (
    MATCH_RTOL,
    Cells,
    ParticleSet,
    StepWorkspace,
    cell_sums,
    deposit,
    init_particles,
    local_maxwellian,
    match,
    push,
    sort_by_cell,
    update_weights,
)

from oracles import gaussian, match_two_pass


def v4_remainder(x, v):
    f = v**4 / (3 * np.sqrt(2 * np.pi)) * np.exp(-(v**2) / 2)
    return (f - gaussian(1.0, 0.0, 5.0, v)) * np.ones_like(x)


def volume(grid, ps):
    """Phase-space volume per particle of a whole set, Lx Lv / Np."""
    return grid.Lx * grid.Lv / ps.Np


def sorted_init(g0, grid, Np, seed):
    """A sampled set in cell order and its grouping (`sort_by_cell`)."""
    return sort_by_cell(init_particles(g0, grid, Np, seed=seed), grid)


def grouping(ps, grid):
    """The grouping of a set that already is in cell order."""
    again, cells = sort_by_cell(ps, grid)
    assert again is ps
    return cells


def match_to(ps, grid, mk, cells, work=None):
    """`match` of a set in cell order against the cell Maxwellian of mk
    (mass ratio 1), evaluated by `local_maxwellian` as the time step does."""
    return match(ps, grid, local_maxwellian(ps.v, cells, mk, 1.0, work), cells, work=work)


class TestInit:
    def test_zero_initial_remainder(self):
        grid = GridSpec(Nx=8, Nv=32)
        ps = init_particles(lambda x, v: np.zeros_like(x), grid, 1000, seed=1)
        assert np.all(ps.w == 0.0)

    def test_determinism(self):
        grid = GridSpec(Nx=8, Nv=32)
        a = init_particles(v4_remainder, grid, 5000, seed=123)
        b = init_particles(v4_remainder, grid, 5000, seed=123)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)
        c = init_particles(v4_remainder, grid, 5000, seed=124)
        assert not np.array_equal(a.w, c.w)

    def test_monte_carlo_convergence(self):
        # the v^4 remainder has zero moments; the sampled global sums must
        # shrink like Np^{-1/2}
        grid = GridSpec(Nx=4, Nv=32)
        errs = {}
        for Np in (10**3, 10**4, 10**5):
            vals = []
            for seed in range(8):
                ps = init_particles(v4_remainder, grid, Np, seed=seed)
                s = np.abs([np.sum(ps.w), np.sum(ps.w * ps.v), np.sum(ps.w * ps.v**2)])
                vals.append(np.max(s))
            errs[Np] = np.mean(vals)
        assert errs[10**5] < errs[10**4] < errs[10**3]
        # absolute scale: within 6 standard errors of the sampled estimator
        ps = init_particles(v4_remainder, grid, 10**5, seed=0)
        for k in range(3):
            samples = ps.w * ps.v**k
            assert abs(np.sum(samples)) < 6.0 * np.std(samples) * np.sqrt(ps.Np)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            init_particles(lambda x, v: x, GridSpec(), 0, seed=0)


class TestPush:
    def test_zero_dt_identity(self):
        grid = GridSpec(Nx=8)
        ps = init_particles(v4_remainder, grid, 100, seed=5)
        ps2 = push(ps, 0.0, grid)
        assert np.array_equal(ps.x, ps2.x)

    def test_periodic_wrap(self):
        grid = GridSpec(Nx=8)
        ps = ParticleSet(x=np.array([0.0]), v=np.array([-1.0]), w=np.array([1.0]))
        out = push(ps, 0.5, grid)
        assert out.x[0] == pytest.approx(4 * np.pi - 0.5, abs=1e-14)

    def test_push_preserves_global_moments(self):
        grid = GridSpec(Nx=8)
        ps = init_particles(v4_remainder, grid, 2000, seed=9)
        before = [np.sum(ps.w * ps.v**k) for k in range(3)]
        out = push(ps, 0.37, grid)
        after = [np.sum(out.w * out.v**k) for k in range(3)]
        assert before == after

    def test_negative_dt_rejected(self):
        grid = GridSpec()
        ps = ParticleSet(x=np.zeros(1), v=np.zeros(1), w=np.zeros(1))
        with pytest.raises(ValueError, match="dt must be >= 0"):
            push(ps, -0.1, grid)
        with pytest.raises(ValueError, match="dt must be >= 0"):
            push(ps, np.nan, grid)


class TestDeposit:
    def test_zero_weights(self):
        grid = GridSpec(Nx=4, Nv=16)
        ps = init_particles(lambda x, v: np.zeros_like(x), grid, 64, seed=2)
        assert np.all(deposit(ps, grid) == 0.0)

    def test_single_particle_unit_deposit(self):
        grid = GridSpec(Lx=4 * np.pi, Nx=4)
        c = 2
        xc = (c + 0.5) * grid.dx
        ps = ParticleSet(x=np.array([xc]), v=np.array([1.7]), w=np.array([grid.dx]))
        G = deposit(ps, grid)
        assert G[0, c] == pytest.approx(1.0)
        assert G[1, c] == pytest.approx(1.7)
        assert G[2, c] == pytest.approx(1.7**2)
        assert G[3, c] == pytest.approx(1.7**3)
        G[:, c] = 0.0
        assert np.all(G == 0.0)

    def test_matched_set_deposits_zero_moments(self):
        grid = GridSpec(Nx=8, Nv=32)
        ps, cells = sorted_init(v4_remainder, grid, 20000, seed=11)
        mk = SpeciesMoments(n=np.ones(8), u=np.zeros(8), T=np.full(8, 5.0))
        ps, skipped, residual, refined = match_to(ps, grid, mk, cells, work=StepWorkspace())
        assert skipped == 0
        G = deposit(ps, grid)
        assert np.max(np.abs(G[:3])) < 1e-12
        # well conditioned: one solve per cell is exact to round-off
        assert refined == 0 and 0.0 < residual < 1e-12


class TestUpdateWeights:
    def test_pure_exponential_decay(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 500, seed=3)
        lam, dt = 2.5, 0.2
        out = update_weights(ps, lambda x, v: np.zeros_like(x), lam, dt, volume(grid, ps), cells)
        assert np.allclose(out.w, ps.w * np.exp(-lam * dt), rtol=0, atol=0)

    def test_zero_damping_is_forward_euler(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 500, seed=3)
        src = lambda x, v: np.cos(v)
        dt = 0.1
        out = update_weights(ps, src, 0.0, dt, volume(grid, ps), cells)
        expected = ps.w + dt * np.cos(ps.v) * grid.Lx * grid.Lv / ps.Np
        assert np.allclose(out.w, expected, rtol=1e-15)
        # the gain is the volume passed, whatever the size of the set
        out = update_weights(ps, src, 0.0, dt, 2.0, cells)
        assert np.allclose(out.w, ps.w + dt * np.cos(ps.v) * 2.0, rtol=1e-15)

    def test_small_damping_approaches_euler(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 200, seed=4)
        src = lambda x, v: np.sin(v)
        dt = 0.05
        w_euler = update_weights(ps, src, 0.0, dt, volume(grid, ps), cells).w
        w_small = update_weights(ps, src, 1e-10, dt, volume(grid, ps), cells).w
        assert np.max(np.abs(w_small - w_euler)) < 1e-10

    def test_negative_damping_rejected(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 10, seed=4)
        with pytest.raises(ValueError):
            update_weights(ps, lambda x, v: np.zeros_like(x), -1.0, 0.1, volume(grid, ps), cells)

    def test_nan_damping_rejected(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 10, seed=4)
        lam = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="damping rate"):
            update_weights(ps, lambda x, v: np.zeros_like(x), lam, 0.1, volume(grid, ps), cells)

    def test_per_cell_rates_reach_their_particles(self):
        # one rate per cell: each particle decays at its own cell's rate
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 400, seed=5)
        lam, dt = np.array([0.5, 1.0, 2.0, 4.0]), 0.3
        out = update_weights(ps, lambda x, v: np.zeros_like(x), lam, dt, volume(grid, ps), cells)
        expected = ps.w * np.exp(-lam[grid.cell_index(ps.x)] * dt)
        assert np.array_equal(out.w, expected)

    def test_rates_must_be_per_cell_or_scalar(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(v4_remainder, grid, 10, seed=4)
        with pytest.raises(ValueError, match="per cell"):
            update_weights(ps, lambda x, v: np.zeros_like(x), np.ones(10), 0.1, volume(grid, ps), cells)

    def test_equilibrium_stays_zero(self):
        grid = GridSpec(Nx=4)
        ps, cells = sorted_init(lambda x, v: np.zeros_like(x), grid, 500, seed=6)
        out = update_weights(ps, lambda x, v: np.zeros_like(x), 3.0, 0.1, volume(grid, ps), cells)
        assert np.all(out.w == 0.0)

    @pytest.mark.parametrize("Nx", [4, 1])
    @pytest.mark.parametrize("with_work", [False, True])
    def test_source_left_unchanged(self, Nx, with_work):
        # the gain times the source goes into a buffer of its own, also when
        # the source is the workspace's "source" buffer, as in the time step
        grid = GridSpec(Nx=Nx)
        ps, cells = sorted_init(v4_remainder, grid, 500, seed=7)
        work = StepWorkspace() if with_work else None
        s = work.buffer("source", ps.Np) if with_work else np.empty(ps.Np)
        s[:] = np.cos(ps.v)
        kept = s.copy()
        out = update_weights(ps, lambda x, v: s, np.linspace(0.5, 2.0, Nx), 0.1, volume(grid, ps), cells, work=work)
        assert np.array_equal(s, kept)
        assert not np.shares_memory(out.w, s)


class TestMatch:
    def hand_case(self):
        # single cell; Lx*Lv/Np = 3*1/3 = 1 so the correction weights are
        # exactly c(v_p); M is the standard normal
        grid = GridSpec(Lx=1.0, Nx=1, Lv=3.0, Nv=8)
        ps = ParticleSet(
            x=np.full(3, 0.5), v=np.array([-1.0, 0.0, 1.0]), w=np.array([1.0, 1.0, 1.0])
        )
        mk = SpeciesMoments(n=np.ones(1), u=np.zeros(1), T=np.ones(1))
        return grid, ps, mk

    def test_hand_solved_three_particle_cell(self):
        grid, ps, mk = self.hand_case()
        out, skipped = match_to(ps, grid, mk, grouping(ps, grid))[:2]
        assert skipped == 0
        sums = cell_sums(out, grid)
        assert np.max(np.abs(sums)) < 1e-12
        # independent monomial-basis solve of the same 3x3 system
        phi = gaussian(1.0, 0.0, 1.0, ps.v)
        A = np.array([[np.sum(ps.v ** (i + j) * phi) for j in range(3)] for i in range(3)])
        b = np.array([np.sum(ps.w * ps.v**k) for k in range(3)])
        a = np.linalg.solve(A, b)
        w_expected = ps.w - (a[0] + a[1] * ps.v + a[2] * ps.v**2) * phi
        assert np.allclose(out.w, w_expected, atol=1e-12)

    def test_already_matched_unchanged(self):
        grid = GridSpec(Nx=8, Nv=32)
        ps, cells = sorted_init(v4_remainder, grid, 20000, seed=13)
        mk = SpeciesMoments(n=np.ones(8), u=np.zeros(8), T=np.full(8, 5.0))
        once = match_to(ps, grid, mk, cells)[0]
        twice = match_to(once, grid, mk, cells)[0]
        assert np.max(np.abs(twice.w - once.w)) < 1e-12

    def test_undersampled_cell_skipped(self):
        grid = GridSpec(Lx=2.0, Nx=2, Lv=4.0, Nv=8)
        # cell 0 has two particles, cell 1 has four
        x = np.array([0.2, 0.6, 1.2, 1.4, 1.6, 1.9])
        v = np.array([-1.0, 1.0, -1.5, -0.5, 0.5, 1.5])
        w = np.ones(6)
        ps = ParticleSet(x=x, v=v, w=w)
        mk = SpeciesMoments(n=np.ones(2), u=np.zeros(2), T=np.ones(2))
        out, skipped = match_to(ps, grid, mk, grouping(ps, grid))[:2]
        assert skipped == 1
        assert np.array_equal(out.w[:2], w[:2])  # untouched cell
        assert np.max(np.abs(cell_sums(out, grid)[:, 1])) < 1e-12

    def test_degenerate_velocities_skipped(self):
        grid = GridSpec(Lx=1.0, Nx=1, Lv=4.0, Nv=8)
        ps = ParticleSet(x=np.full(4, 0.5), v=np.full(4, 0.3), w=np.ones(4))
        mk = SpeciesMoments(n=np.ones(1), u=np.zeros(1), T=np.ones(1))
        out, skipped = match_to(ps, grid, mk, grouping(ps, grid))[:2]
        assert skipped == 1
        assert np.array_equal(out.w, ps.w)

    def test_matches_independent_monomial_solver(self):
        # the per-cell correction polynomial is unique, so the package's
        # scaled-basis solve must reproduce a from-scratch monomial solve
        grid = GridSpec(Lx=2.0, Nx=4, Lv=6.0, Nv=8)
        rng = np.random.default_rng(23)
        Np = 600
        ps = ParticleSet(
            x=rng.uniform(0, grid.Lx, Np),
            v=rng.uniform(-3, 3, Np),
            w=rng.normal(size=Np) * 0.1,
        )
        ps, cells = sort_by_cell(ps, grid)
        mk = SpeciesMoments(n=np.full(4, 1.1), u=np.full(4, 0.2), T=np.full(4, 0.8))
        out, skipped = match_to(ps, grid, mk, cells)[:2]
        assert skipped == 0

        factor = grid.Lx * grid.Lv / Np
        w_ref = ps.w.copy()
        idx = grid.cell_index(ps.x)
        for c in range(grid.Nx):
            sel = idx == c
            vv = ps.v[sel]
            phi = gaussian(1.1, 0.2, 0.8, vv) * factor
            A = np.array([[np.sum(vv ** (i + j) * phi) for j in range(3)] for i in range(3)])
            b = np.array([np.sum(ps.w[sel] * vv**k) for k in range(3)])
            a = np.linalg.solve(A, b)
            w_ref[sel] -= (a[0] + a[1] * vv + a[2] * vv**2) * phi
        assert np.allclose(out.w, w_ref, atol=1e-12)

    def test_third_moment_not_matched(self):
        # matching controls three moments only; <v^3 g> moves (documented)
        grid = GridSpec(Nx=4, Nv=32)
        ps, cells = sorted_init(v4_remainder, grid, 8000, seed=17)
        mk = SpeciesMoments(n=np.ones(4), u=np.zeros(4), T=np.full(4, 5.0))
        before = deposit(ps, grid, cells)[3].copy()
        out = match_to(ps, grid, mk, cells)[0]
        after = deposit(out, grid, cells)[3]
        assert not np.allclose(before, after, atol=1e-12)


class TestLocalMaxwellian:
    def test_nan_temperature_rejected(self):
        # the one T > 0 check of the particle step, ahead of the source, the
        # weight update and the matching, which all read its result
        grid, ps, _ = TestMatch().hand_case()
        mk = SpeciesMoments(n=np.ones(1), u=np.zeros(1), T=np.array([np.nan]))
        with pytest.raises(ValueError, match="T > 0"):
            local_maxwellian(ps.v, grouping(ps, grid), mk, 1.0)


class TestSortedLayout:
    """Sets in cell order and shuffled copies of them, sorted again, give the
    same answers."""

    def mixed_set(self, Nx, seed=31):
        # cell 1 and the last cell are empty, cell 2 holds one particle,
        # cell 3 two, every other cell many
        grid = GridSpec(Lx=float(Nx), Nx=Nx, Lv=8.0, Nv=16)
        rng = np.random.default_rng(seed)
        per_cell = [rng.integers(40, 80) for _ in range(Nx)]
        per_cell[1], per_cell[2], per_cell[3], per_cell[-1] = 0, 1, 2, 0
        x = np.concatenate([c + rng.uniform(0.0, 1.0, k) for c, k in enumerate(per_cell)])
        v = rng.normal(0.3, 1.2, x.size)
        w = rng.normal(size=x.size) * 0.05
        return grid, sort_by_cell(ParticleSet(x=x, v=v, w=w), grid)[0]

    def shuffled(self, ps, seed=7):
        perm = np.random.default_rng(seed).permutation(ps.Np)
        return ParticleSet(x=ps.x[perm], v=ps.v[perm], w=ps.w[perm]), perm

    def set_for(self, Nx):
        if Nx > 1:
            return self.mixed_set(Nx)
        grid = GridSpec(Lx=1.0, Nx=1, Lv=8.0, Nv=16)
        return grid, init_particles(v4_remainder, grid, 3000, seed=3)

    def test_sort_is_stable_and_skipped_when_sorted(self):
        grid, ps = self.mixed_set(8)
        idx = grid.cell_index(ps.x)
        assert np.all(np.diff(idx) >= 0)
        again, cells = sort_by_cell(ps, grid)
        assert again is ps
        assert np.array_equal(cells.counts, np.bincount(idx, minlength=grid.Nx))
        shuf, perm = self.shuffled(ps)
        back, cells = sort_by_cell(shuf, grid)
        # stable: within a cell the shuffled order is kept
        order = np.argsort(grid.cell_index(shuf.x), kind="stable")
        assert np.array_equal(back.w, shuf.w[order])
        # the grouping describes the sorted set
        assert np.array_equal(np.repeat(np.arange(grid.Nx), cells.counts), grid.cell_index(back.x))

    def test_passed_grouping_gives_same_answers(self):
        # handed no grouping, deposit and cell_sums sort the set first: the
        # bits of the sorted set with its grouping, whatever the input order
        grid, ps = self.mixed_set(8)
        shuf = self.shuffled(ps)[0]
        ps, cells = sort_by_cell(shuf, grid)
        assert np.array_equal(deposit(ps, grid, cells=cells), deposit(ps, grid))
        assert np.array_equal(deposit(ps, grid, cells=cells), deposit(shuf, grid))
        assert np.array_equal(cell_sums(shuf, grid), deposit(ps, grid, cells=cells)[:3] * grid.dx)

    @pytest.mark.parametrize("Nx", [8, 1])
    def test_deposit_and_cell_sums_order_free(self, Nx):
        grid, ps = self.set_for(Nx)
        shuf, _ = self.shuffled(ps)
        # round-off scale of each per-cell sum: the same sums of |w v^j|
        scale = deposit(ParticleSet(x=ps.x, v=np.abs(ps.v), w=np.abs(ps.w)), grid)
        assert np.all(np.abs(deposit(shuf, grid) - deposit(ps, grid)) <= 1e-13 * scale)
        sums_diff = np.abs(cell_sums(shuf, grid) - cell_sums(ps, grid))
        assert np.all(sums_diff <= 1e-13 * scale[:3] * grid.dx)

    def test_reductions_match_per_cell_oracle(self):
        # empty cells read exactly zero; other cells equal a plain per-cell sum
        grid, ps = self.mixed_set(8)
        shuf, _ = self.shuffled(ps)
        idx = grid.cell_index(shuf.x)
        want = np.array([[np.sum(shuf.w[idx == c] * shuf.v[idx == c] ** j) for c in range(grid.Nx)] for j in range(3)])
        got = cell_sums(shuf, grid)
        assert np.all(got[:, [1, grid.Nx - 1]] == 0.0)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("Nx", [8, 1])
    def test_match_order_free(self, Nx):
        # the order of the particles within each cell moves no weight
        # beyond round-off
        grid, ps = self.set_for(Nx)
        mk = SpeciesMoments(n=np.full(Nx, 1.1), u=np.full(Nx, 0.2), T=np.full(Nx, 1.3))
        shuf, perm = self.shuffled(ps)
        perm = perm[np.argsort(grid.cell_index(shuf.x), kind="stable")]
        shuf, cells = sort_by_cell(shuf, grid)
        a, skipped_a = match_to(ps, grid, mk, grouping(ps, grid))[:2]
        b, skipped_b = match_to(shuf, grid, mk, cells)[:2]
        # cells holding one or two particles cannot be solved and are counted
        assert skipped_a == skipped_b == (2 if Nx > 1 else 0)
        assert np.array_equal(b.x, shuf.x) and np.array_equal(b.v, shuf.v)
        # weight by weight, shuf being ps[perm]
        assert np.array_equal(shuf.w, ps.w[perm])
        assert np.max(np.abs(b.w - a.w[perm])) <= 1e-13 * np.max(np.abs(ps.w))
        solved = [c for c in range(Nx) if c not in (2, 3)] if Nx > 1 else [0]
        assert np.max(np.abs(cell_sums(b, grid)[:, solved])) < 1e-12
        if Nx > 1:
            idx = grid.cell_index(shuf.x)
            few = (idx == 2) | (idx == 3)
            assert np.array_equal(b.w[few], shuf.w[few])

    def test_step_leaves_particles_in_cell_order(self):
        from kinmix.config import RunConfig
        from kinmix.driver import setup_simulation, step

        cfg = RunConfig(mode="general", Nx=16, Nv=32, Np1=3000, Np2=3000, seed=4,
                        dt=1e-2, t_end=0.0, m1=1.0, m2=1.0, preset="cosine-perturbed", beta=0.1)
        grid, p, sim = setup_simulation(cfg)
        for _ in range(2):
            sim, _ = step(sim, p, grid, cfg.dt)
            for ps in (sim.ps1, sim.ps2):
                assert np.all(np.diff(grid.cell_index(ps.x)) >= 0)


class TestOneCellGrouping:
    """A grouping of one cell spreads nothing and, on a one-cell grid,
    indexes nothing: every particle is in cell 0."""

    def test_one_cell_grid_computes_no_cell_index(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("cell_index called on a one-cell grid")

        monkeypatch.setattr(GridSpec, "cell_index", refuse)
        grid = GridSpec(Lx=2.0, Nx=1, Nv=16)
        # in range, -0.0, at Lx, negative, several periods out and NaN
        x = np.array([0.5, -0.0, 0.0, 2.0, -0.25, 7.5, -40.0, np.nextafter(2.0, 0.0), np.nan])
        ps = ParticleSet(x=x, v=np.linspace(-1.0, 1.0, x.size), w=np.arange(x.size, dtype=float))
        again, cells = sort_by_cell(ps, grid)
        assert again is ps
        assert cells.span == slice(0, 1)
        assert np.array_equal(cells.counts, [x.size])
        assert cells.sum(ps.w)[0] == np.add.reduceat(ps.w, [0])[0]
        empty = ParticleSet(x=np.empty(0), v=np.empty(0), w=np.empty(0))
        assert np.array_equal(sort_by_cell(empty, grid)[1].counts, [0])
        assert np.array_equal(sort_by_cell(empty, grid)[1].sum(empty.w), [0.0])

    @pytest.mark.parametrize("Nx", [1, 8])
    def test_one_cell_spreads_the_field_itself(self, Nx):
        # a one-cell grid, and a one-cell block of a multi-cell grid
        grid = GridSpec(Lx=float(Nx), Nx=Nx, Nv=16)
        x = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 50))  # all in cell 0
        # the grouping of the set, or of a block of cell 0 alone (`blocks`)
        cells = Cells(np.array([x.size]), slice(0, 1))
        if Nx == 1:
            cells = grouping(ParticleSet(x=x, v=x, w=x), grid)
        f = cells.repeat(np.array([2.5]))
        assert f.shape == (1,) and f[0] == 2.5 and not f.flags.writeable
        assert cells.repeat(1.5).shape == (1,)
        v = np.linspace(-1.0, 1.0, x.size)
        assert np.array_equal(v * cells.repeat([0.3]), v * np.repeat(0.3, x.size))


class TestGroupingPrecondition:
    """A grouping describes one set in cell order; anything else is refused,
    naming what is needed."""

    @pytest.mark.parametrize("Nx", [8, 1])
    def test_grouping_of_another_set_size_is_refused(self, Nx):
        # a 400-particle set with the grouping of a 300-particle one, and the
        # reverse: deposit would sum the wrong segments or fail in reduceat
        grid = GridSpec(Nx=Nx, Nv=16)
        big, big_cells = sorted_init(v4_remainder, grid, 400, seed=8)
        small, small_cells = sorted_init(v4_remainder, grid, 300, seed=9)
        mk = SpeciesMoments(n=np.ones(Nx), u=np.zeros(Nx), T=np.full(Nx, 5.0))
        zero = lambda x, v: np.zeros_like(x)  # noqa: E731
        for ps, own, cells in ((big, big_cells, small_cells), (small, small_cells, big_cells)):
            with pytest.raises(ValueError, match="does not fit a set of .*cell order"):
                deposit(ps, grid, cells)
            with pytest.raises(ValueError, match="does not fit a set of .*cell order"):
                update_weights(ps, zero, 1.0, 0.1, volume(grid, ps), cells)
            with pytest.raises(ValueError, match="does not fit a set of .*cell order"):
                match(ps, grid, local_maxwellian(ps.v, own, mk, 1.0), cells)
        # each set with its own grouping is accepted
        assert np.array_equal(deposit(big, grid, big_cells), deposit(big, grid))


class TestAdaptiveMatch:
    """One solve per cell, and a second only where the measured residual
    says the first was not exact enough."""

    def cases(self):
        layout = TestSortedLayout()
        grid8, mixed = layout.mixed_set(8)  # empty, 1- and 2-particle cells
        grid1, single = layout.set_for(1)
        grid2 = GridSpec(Lx=2.0, Nx=2, Lv=4.0, Nv=8)
        undersampled = ParticleSet(
            x=np.array([0.2, 0.6, 1.2, 1.4, 1.6, 1.9]), v=np.array([-1.0, 1.0, -1.5, -0.5, 0.5, 1.5]), w=np.ones(6)
        )
        return {
            "mixed": (grid8, mixed),
            "mixed-shuffled": (grid8, layout.shuffled(mixed)[0]),
            "one-cell": (grid1, single),
            "one-cell-shuffled": (grid1, layout.shuffled(single)[0]),
            "hand": TestMatch().hand_case()[:2],
            "undersampled": (grid2, undersampled),
        }

    @pytest.mark.parametrize(
        "case", ["mixed", "mixed-shuffled", "one-cell", "one-cell-shuffled", "hand", "undersampled"]
    )
    def test_agrees_with_two_pass_oracle(self, case):
        grid, ps = self.cases()[case]
        ps, cells = sort_by_cell(ps, grid)
        n, u, T = np.full(grid.Nx, 1.1), np.full(grid.Nx, 0.2), np.full(grid.Nx, 1.3)
        out, skipped = match_to(ps, grid, SpeciesMoments(n=n, u=u, T=T), cells)[:2]
        w_ref, skipped_ref = match_two_pass(grid.cell_index(ps.x), ps.v, ps.w, n, u, T)
        assert skipped == skipped_ref
        assert np.max(np.abs(out.w - w_ref)) <= 1e-13 * np.max(np.abs(ps.w))

    def test_input_weights_left_untouched(self):
        grid, ps = self.cases()["mixed-shuffled"]
        ps, cells = sort_by_cell(ps, grid)
        w0 = ps.w.copy()
        mk = SpeciesMoments(n=np.ones(8), u=np.zeros(8), T=np.ones(8))
        out = match_to(ps, grid, mk, cells, work=StepWorkspace())[0]
        assert np.array_equal(ps.w, w0) and not np.shares_memory(out.w, ps.w)

    def test_weights_buffer_is_matched_in_place(self):
        # as in the time step, where the weight update leaves its result in
        # the workspace's "weights" buffer: the same bits, in that buffer
        grid, ps = self.cases()["mixed-shuffled"]
        ps, cells = sort_by_cell(ps, grid)
        mk = SpeciesMoments(n=np.ones(8), u=np.zeros(8), T=np.ones(8))
        want = match_to(ps, grid, mk, cells)[0].w
        work = StepWorkspace()
        buf = work.buffer("weights", ps.Np)
        buf[:] = ps.w
        out = match_to(ParticleSet(x=ps.x, v=ps.v, w=buf), grid, mk, cells, work=work)[0]
        assert np.shares_memory(out.w, buf) and np.array_equal(out.w, want)

    def test_inexact_first_solve_is_refined_below_tolerance(self):
        # one cell whose particles sit at h1 = 0, 1, 6 and 7: the Maxwellian
        # weights span e^-24, the Gram matrix is ill-conditioned (but above
        # the determinant threshold), and one solve leaves a residual far
        # above round-off
        grid = GridSpec(Lx=1.0, Nx=1, Lv=20.0, Nv=8)
        v = np.array([0.0, 1.0, 6.0, 7.0])
        w = np.random.default_rng(2).normal(size=4)
        ps = ParticleSet(x=np.full(4, 0.5), v=v, w=w)
        one, u, T = np.ones(1), np.zeros(1), np.ones(1)
        mk = SpeciesMoments(n=one, u=u, T=T)

        def residual_and_scale(wc):
            h2 = v * v - 1.0
            r = np.abs([np.sum(wc), np.sum(wc * v), np.sum(wc * h2)])
            scale = np.sum(np.abs(wc) * np.array([np.ones(4), np.abs(v), np.abs(h2)]), axis=1)
            return r, scale

        w_once, skipped = match_two_pass(np.zeros(4, dtype=int), v, w, one, u, T, passes=1)
        assert skipped == 0
        r, scale = residual_and_scale(w_once)
        assert np.any(r > 100.0 * MATCH_RTOL * scale)

        out, skipped, residual, refined = match_to(ps, grid, mk, grouping(ps, grid), work=StepWorkspace())
        assert skipped == 0 and refined == 1
        r, scale = residual_and_scale(out.w)
        assert np.all(r <= MATCH_RTOL * scale)
        assert residual <= MATCH_RTOL * scale.max()
