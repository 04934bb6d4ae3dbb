import numpy as np
import pytest

from kinmix import macrofv, reference
from kinmix.config import RunConfig
from kinmix.driver import run
from kinmix.grids import GridSpec
from kinmix.homogeneous import kinetic_homogeneous_run
from kinmix.macrofv import PositivityError
from kinmix.model import MixtureParams, SpeciesMoments, maxwellian, validate_params
from kinmix.reference import (
    CFLError,
    GridDistribution,
    cellwise_moments,
    discrete_maxwellian_rows,
    dvm_run,
    dvm_step,
)

from oracles import min_value

P1 = validate_params(MixtureParams())


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
        # with Knudsen 0.05 and dt = 0.05, rate*dt = 1.2: the Heun update sub-steps
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

        def poisoning_step(state, p, dt):
            out = real_step(state, p, dt)
            if state.t == 0.0:
                poison(out.f2, fault)
            return out

        monkeypatch.setattr(reference, "dvm_step", poisoning_step)
        with pytest.raises(RuntimeError, match=r"run aborted at step 2/3 .*\(species 2\)") as err:
            run(cfg)
        assert isinstance(err.value.__cause__, PositivityError)
