import numpy as np
import pytest

from kinmix import macrofv, reference
from kinmix.config import RunConfig
from kinmix.driver import run, setup_simulation
from kinmix.grids import GridSpec, StepWorkspace
from kinmix.homogeneous import kinetic_homogeneous_run
from kinmix.macrofv import PositivityError
from kinmix.model import MixtureParams, SpeciesMoments, maxwellian, validate_params
from kinmix.reference import (
    CFLError,
    GridDistribution,
    cellwise_moments,
    discrete_maxwellian_rows,
    dvm_step,
)

from oracles import min_value

P1 = validate_params(MixtureParams())


def dvm_run(state, p, dt, t_end):
    """Step a grid distribution from its time to t_end in steps of dt."""
    for _ in range(int(round(t_end / dt))):
        state = dvm_step(state, p, dt)
    return state


def v4_profile(v):
    return v**4 / (3 * np.sqrt(2 * np.pi)) * np.exp(-(v**2) / 2)


def cosine_state(grid, beta=0.1):
    X = grid.x_centers[:, None]
    V = grid.v_nodes[None, :]
    f2 = (1 + beta * np.cos(X / 2)) * v4_profile(V)
    f1 = maxwellian(SpeciesMoments(n=1.0, u=0.5, T=1.0), 1.0, V) * np.ones_like(X)
    return GridDistribution(f1=f1, f2=f2, grid=grid)


def poison(f, fault):
    """Put a NaN into one sample of f, or flip the sign of cell 1 (negative density)."""
    if fault == "nan":
        f[1, 10] = np.nan
    else:
        f[1] *= -1.0


class TestDiscreteMaxwellian:
    def test_grid_moments_pinned(self):
        grid = GridSpec(Nx=3, Nv=64)
        n = np.array([1.0, 1.2, 0.7])
        u = np.array([0.0, 0.3, -0.5])
        th = np.array([5.0, 0.5, 1.3])
        M = discrete_maxwellian_rows(n, u, th, grid)
        wq, v = grid.v_weights, grid.v_nodes
        assert np.allclose(M @ wq, n, atol=1e-13)
        assert np.allclose(M @ (wq * v), n * u, atol=1e-13)
        assert np.allclose(M @ (wq * v * v), n * (th + u * u), atol=1e-12)

    def test_close_to_analytic_on_fine_grid(self):
        grid = GridSpec(Nx=1, Nv=512)
        M = discrete_maxwellian_rows(np.array([1.0]), np.array([0.2]), np.array([1.0]), grid)
        exact = maxwellian(SpeciesMoments(n=1.0, u=0.2, T=1.0), 1.0, grid.v_nodes)
        assert np.max(np.abs(M[0] - exact)) < 1e-8


class TestDvmStep:
    def test_uniform_equilibrium_stationary(self):
        grid = GridSpec(Nx=16, Nv=64)
        V = grid.v_nodes[None, :]
        ones = np.ones((grid.Nx, 1))
        f1 = maxwellian(SpeciesMoments(n=1.0, u=0.2, T=0.9), 1.0, V) * ones
        f2 = maxwellian(SpeciesMoments(n=1.4, u=0.2, T=0.9), 1.5, V) * ones
        st = GridDistribution(f1=f1, f2=f2, grid=grid)
        out = dvm_run(st, P1, dt=1e-2, t_end=0.1)
        assert np.max(np.abs(out.f1 - f1)) < 1e-12
        assert np.max(np.abs(out.f2 - f2)) < 1e-12

    def test_cfl_violation(self):
        grid = GridSpec(Nx=64, Nv=64)
        st = cosine_state(grid)
        with pytest.raises(CFLError, match="need dt <="):
            dvm_step(st, P1, dt=1.0)
        assert CFLError is macrofv.CFLError  # one CFL error for both solvers

    def test_homogeneous_restriction_matches_kinetic_run(self):
        # the homogeneous kinetic run is this solver on one cell, bit for bit
        grid = GridSpec(Nx=1, Nv=256)
        v = grid.v_nodes
        f1 = v4_profile(v)
        f2 = maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, v)
        # with Knudsen 0.05 and dt = 0.05, rate*dt = 1.2: a stiff step for the exchange map
        p005 = validate_params(MixtureParams(eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05))
        for p, dt, t_end in ((P1, 2e-3, 0.5), (p005, 5e-2, 1.0)):
            traj = kinetic_homogeneous_run(f1.copy(), f2.copy(), p, grid, dt=dt, t_end=t_end)
            st = GridDistribution(f1=f1[None, :].copy(), f2=f2[None, :].copy(), grid=grid)
            out = dvm_run(st, p, dt=dt, t_end=t_end)
            assert np.array_equal(out.f1[0], traj.f1) and np.array_equal(out.f2[0], traj.f2)

    def test_mass_conserved_exactly_per_step(self):
        grid = GridSpec(Nx=32, Nv=64)
        st = cosine_state(grid)
        wq = grid.v_weights
        m10 = np.sum(st.f1 @ wq) * grid.dx
        m20 = np.sum(st.f2 @ wq) * grid.dx
        for _ in range(10):
            st = dvm_step(st, P1, dt=1e-2)
            assert np.sum(st.f1 @ wq) * grid.dx == pytest.approx(m10, abs=1e-12)
            assert np.sum(st.f2 @ wq) * grid.dx == pytest.approx(m20, abs=1e-12)

    def test_momentum_energy_drift_below_1e8_per_unit_time(self):
        grid = GridSpec(Nx=32, Nv=64)
        st = cosine_state(grid)
        wq, v = grid.v_weights, grid.v_nodes
        mr2 = 1.5

        def totals(s):
            P = np.sum((s.f1 + mr2 * s.f2) @ (wq * v)) * grid.dx
            E = np.sum((s.f1 + mr2 * s.f2) @ (wq * v * v)) * grid.dx
            return P, E

        P0, E0 = totals(st)
        t_end = 0.5
        out = dvm_run(st, P1, dt=1e-2, t_end=t_end)
        P, E = totals(out)
        assert abs(P - P0) / t_end < 1e-8
        assert abs(E - E0) / t_end < 1e-8

    def test_negativity_monitored_small(self):
        grid = GridSpec(Nx=32, Nv=64)
        st = cosine_state(grid)
        out = dvm_run(st, P1, dt=1e-2, t_end=0.3)
        assert min_value(out) >= -1e-12

    def test_moments_evolve_toward_equilibrium(self):
        grid = GridSpec(Nx=32, Nv=64)
        st = cosine_state(grid)
        m1a = cellwise_moments(st.f1, grid, 1.0)
        m2a = cellwise_moments(st.f2, grid, 1.5)
        gap0 = np.max(np.abs(m1a.u - m2a.u))
        out = dvm_run(st, P1, dt=1e-2, t_end=1.0)
        m1b = cellwise_moments(out.f1, grid, 1.0)
        m2b = cellwise_moments(out.f2, grid, 1.5)
        assert np.max(np.abs(m1b.u - m2b.u)) < gap0


class TestStepWorkspace:
    def test_stepping_one_state_twice_gives_the_same_bits_and_workspace(self):
        grid = GridSpec(Nx=16, Nv=64)
        st = cosine_state(grid)
        once, again = dvm_step(st, P1, dt=1e-2), dvm_step(st, P1, dt=1e-2)
        assert np.array_equal(once.f1, again.f1) and np.array_equal(once.f2, again.f2)
        assert once.work is again.work is st.work

    def test_kept_states_are_fresh_and_untouched_by_later_steps(self):
        grid = GridSpec(Nx=16, Nv=64)
        st = cosine_state(grid)
        f1_0, f2_0 = st.f1.copy(), st.f2.copy()
        kept = dvm_step(st, P1, dt=1e-2)
        assert np.array_equal(st.f1, f1_0) and np.array_equal(st.f2, f2_0)
        frozen = (kept.f1.copy(), kept.f2.copy())
        states = [st, kept]
        for _ in range(2):
            states.append(dvm_step(states[-1], P1, dt=1e-2))
        buffers = list(st.work.buffers.values())
        assert buffers
        for s in states:
            for f in (s.f1, s.f2):
                assert not any(np.shares_memory(f, b) for b in buffers)
            assert not np.shares_memory(s.f1, s.f2)
        for a, b in zip(states, states[1:]):
            for f, g in ((a.f1, b.f1), (a.f2, b.f2), (a.f1, b.f2), (a.f2, b.f1)):
                assert not np.shares_memory(f, g)
        assert np.array_equal(kept.f1, frozen[0]) and np.array_equal(kept.f2, frozen[1])

    def test_discrete_maxwellian_same_bits_with_any_workspace(self):
        grid = GridSpec(Nx=3, Nv=64)
        n = np.array([1.0, 1.2, 0.7])
        u = np.array([0.0, 0.3, -0.5])
        th = np.array([5.0, 0.5, 1.3])
        plain = discrete_maxwellian_rows(n, u, th, grid)
        # buffers left larger (and dirty) by a bigger grid
        work = StepWorkspace()
        big = GridSpec(Nx=8, Nv=128)
        discrete_maxwellian_rows(np.ones(8), np.linspace(-1, 1, 8), np.full(8, 2.0), big, work)
        sizes = {k: b.size for k, b in work.buffers.items()}
        for _ in range(2):
            out = discrete_maxwellian_rows(n, u, th, grid, work)
            assert np.array_equal(out, plain)
            assert not any(np.shares_memory(out, b) for b in work.buffers.values())
        assert {k: b.size for k, b in work.buffers.items()} == sizes

    def test_reference_step_temporaries_stay_within_frozen_bound(self):
        # tracemalloc: the peak of 3 steps at 128 x 256 above the memory the
        # resulting state holds, in state units 2 Nx Nv 8 bytes; it includes
        # the workspace. Measured 5.24 before the workspace, 5.08 with it.
        import tracemalloc

        cfg = RunConfig(mode="reference", Lx=4 * np.pi, Lv=20.0, Nx=128, Nv=256, dt=4e-3, t_end=1.2e-2,
                        preset="cosine-perturbed", beta=0.1)
        grid, p, st = setup_simulation(cfg)
        tracemalloc.start()
        try:
            for _ in range(3):
                st = dvm_step(st, p, cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = st.f1.nbytes + st.f2.nbytes
        assert (peak - state) / (2 * grid.Nx * grid.Nv * 8) <= 5.08


class TestWatchdog:
    @pytest.mark.parametrize("fault", ["nan", "negative-density"])
    @pytest.mark.parametrize("species", [1, 2])
    def test_bad_cell_raises_naming_species(self, species, fault):
        grid = GridSpec(Nx=4, Nv=64)
        st = cosine_state(grid)
        poison(getattr(st, f"f{species}"), fault)
        with pytest.raises(PositivityError, match=rf"\(species {species}\)"):
            dvm_step(st, P1, dt=1e-2)

    @pytest.mark.parametrize("fault", ["nan", "negative-density"])
    def test_run_aborts_at_the_step_that_meets_it(self, monkeypatch, fault):
        # the state after step 1 is poisoned; no record falls between, so step 2 meets it
        cfg = RunConfig(mode="reference", Nx=4, Nv=64, dt=1e-2, t_end=3e-2, output_every=3,
                        preset="cosine-perturbed", beta=0.1)
        real_step = reference.dvm_step
        calls = []

        def poisoning_step(state, p, dt):
            out = real_step(state, p, dt)
            calls.append(1)
            if len(calls) == 1:
                poison(out.f2, fault)
            return out

        monkeypatch.setattr(reference, "dvm_step", poisoning_step)
        with pytest.raises(RuntimeError, match=r"run aborted at step 2/3 .*\(species 2\)") as err:
            run(cfg)
        assert isinstance(err.value.__cause__, PositivityError)
