import numpy as np
import pytest

from kinmix import homogeneous
from kinmix.grids import GridSpec
from kinmix.homogeneous import (
    analytic_temperature_gap,
    analytic_velocity_gap,
    decay_constants,
    kinetic_homogeneous_run,
    l1_gap,
    moment_ode_run,
    moment_ode_step,
    relative_entropy,
)
from kinmix.model import MixtureParams, SpeciesMoments, maxwellian, validate_params
from kinmix.reference import cellwise_moments

from oracles import gaussian

P005 = validate_params(MixtureParams(eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05))
P1 = validate_params(MixtureParams())
N1, N2 = 1.0, 1.2
INIT = (0.5, 0.1, 1.0, 0.1)  # u1, u2, T1, T2


def v4_profile(v):
    return v**4 / (3 * np.sqrt(2 * np.pi)) * np.exp(-(v**2) / 2)


class TestDecayConstants:
    def test_baseline_knudsen005(self):
        c = decay_constants(P005, N1, N2)
        assert c.C3 == pytest.approx(112.0 / 3.0, rel=1e-14)
        assert c.C1 == pytest.approx(22.0, rel=1e-14)
        assert c.C2 == pytest.approx(-4.6, rel=1e-13)
        assert c.C == pytest.approx(44.0, rel=1e-14)

    def test_positive_for_admissible_params(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            epst1 = float(rng.uniform(0.05, 2))
            p = validate_params(
                MixtureParams(
                    m2=float(rng.uniform(0.5, 3)),
                    delta=float(rng.uniform(0, 0.95)),
                    alpha=float(rng.uniform(0, 0.95)),
                    gamma=0.0,
                    epst1=epst1,
                    epst2=epst1 * float(rng.uniform(0.1, 1.0)),
                )
            )
            c = decay_constants(p, N1, N2)
            assert c.C1 > 0 and c.C3 > 0 and c.C > 0


class TestMomentODE:
    def test_fixed_point(self):
        out = moment_ode_step(0.3, 0.3, 0.9, 0.9, P005, N1, N2, 1e-3)
        assert out == pytest.approx((0.3, 0.3, 0.9, 0.9), abs=1e-15)

    def test_velocity_gap_matches_rate_law(self):
        # |u1-u2|^2 at t=0.1 must match 0.16 e^{-37.333 t} to 0.1%
        ts, u1, u2, T1, T2 = moment_ode_run(*INIT, P005, N1, N2, dt=1e-4, t_end=0.1, output_every=1000)
        gap = (u1[-1] - u2[-1]) ** 2
        expected = 0.16 * np.exp(-(112.0 / 3.0) * 0.1)
        assert gap == pytest.approx(expected, rel=1e-3)

    def test_stiff_step_is_substepped(self):
        # rate*dt = 24 * 0.5 = 12: a single RK4 step multiplies the temperature
        # gap by 637; in sub-steps of rate*h <= 1/2 it follows the fine run
        ts, u1, u2, T1, T2 = moment_ode_run(*INIT, P005, N1, N2, dt=1e-4, t_end=0.5, output_every=5000)
        out = moment_ode_step(*INIT, P005, N1, N2, 0.5)
        assert out == pytest.approx((u1[-1], u2[-1], T1[-1], T2[-1]), rel=1e-4, abs=1e-9)

    def test_delta_one_freezes_velocities(self):
        p = validate_params(MixtureParams(delta=1.0, gamma=0.0, eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05))
        ts, u1, u2, T1, T2 = moment_ode_run(*INIT, p, N1, N2, dt=1e-3, t_end=0.2)
        assert np.all(u1 == INIT[0]) and np.all(u2 == INIT[1])


class TestAnalyticLaws:
    def test_velocity_gap_at_zero(self):
        assert analytic_velocity_gap(0.0, 0.5, 0.1, P005, N1, N2) == pytest.approx(0.16)

    def test_equal_velocities(self):
        assert analytic_velocity_gap(1.0, 0.2, 0.2, P005, N1, N2) == 0.0

    def test_baseline_value(self):
        val = analytic_velocity_gap(0.1, 0.5, 0.1, P005, N1, N2)
        assert val == pytest.approx(0.16 * np.exp(-3.733333333333333), rel=1e-12)

    def test_temperature_gap_at_zero(self):
        assert analytic_temperature_gap(0.0, *INIT, P005, N1, N2) == pytest.approx(0.9)

    def test_pure_exponential_when_velocities_equal(self):
        c = decay_constants(P005, N1, N2)
        t = np.linspace(0, 0.2, 5)
        got = analytic_temperature_gap(t, 0.3, 0.3, 1.0, 0.1, P005, N1, N2)
        assert np.allclose(got, np.exp(-c.C1 * t) * 0.9, rtol=1e-14)

    def test_ode_matches_analytic_over_window(self):
        ts, u1, u2, T1, T2 = moment_ode_run(*INIT, P005, N1, N2, dt=1e-4, t_end=0.5, output_every=100)
        ana_u = analytic_velocity_gap(ts, INIT[0], INIT[1], P005, N1, N2)
        ana_T = analytic_temperature_gap(ts, *INIT, P005, N1, N2)
        num_u = (u1 - u2) ** 2
        num_T = T1 - T2
        m = ana_u > 1e-300
        assert np.max(np.abs(num_u[m] / ana_u[m] - 1)) < 1e-3
        mT = np.abs(ana_T) > 1e-12
        assert np.max(np.abs(num_T[mT] / ana_T[mT] - 1)) < 1e-3

    def test_degenerate_equal_rates_branch(self):
        # m1=m2 with (1-alpha) = 2(1-delta) makes C1 == C3 exactly
        p = validate_params(MixtureParams(m2=1.0, delta=0.75, alpha=0.5, gamma=0.1))
        c = decay_constants(p, N1, N2)
        assert c.C1 == c.C3
        ts, u1, u2, T1, T2 = moment_ode_run(*INIT, p, N1, N2, dt=1e-4, t_end=0.5, output_every=500)
        ana = analytic_temperature_gap(ts, *INIT, p, N1, N2)
        assert np.max(np.abs((T1 - T2) - ana)) < 1e-6

    def test_law_finite_where_fast_rate_overflows(self):
        # alpha=0.1, delta=0.9 at Knudsen 1e-5 give C1 > C3 with
        # (C1 - C3) t > 709 by the end, where e^{(C1 - C3) t} overflows
        p = validate_params(MixtureParams(alpha=0.1, delta=0.9, eps1=1e-5, epst1=1e-5, eps2=1e-5, epst2=1e-5))
        c = decay_constants(p, N1, N2)
        t_end = 5e-3
        assert (c.C1 - c.C3) * t_end > 709
        ts, u1, u2, T1, T2 = moment_ode_run(*INIT, p, N1, N2, dt=2e-6, t_end=t_end, output_every=50)
        ana = analytic_temperature_gap(ts, *INIT, p, N1, N2)
        assert np.isfinite(ana).all()
        assert np.max(np.abs((T1 - T2) - ana)) < 1e-4 * np.max(np.abs(ana))

    def test_nu12_scales_time(self):
        # nu12 enters every rate linearly: doubling it halves the time axis
        p1 = validate_params(MixtureParams(nu12=1.0))
        p2 = validate_params(MixtureParams(nu12=2.0))
        for t in (0.1, 0.5, 2.0):
            assert analytic_velocity_gap(t, 0.5, 0.1, p2, N1, N2) == pytest.approx(
                analytic_velocity_gap(2 * t, 0.5, 0.1, p1, N1, N2), rel=1e-12
            )
            assert analytic_temperature_gap(t, *INIT, p2, N1, N2) == pytest.approx(
                analytic_temperature_gap(2 * t, *INIT, p1, N1, N2), rel=1e-12
            )

    def test_property_sweep_random_admissible(self):
        # the closed-form laws hold for every admissible parameter draw
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 8:
            m2m = float(rng.uniform(0.5, 2.5))
            epst1 = float(rng.uniform(0.1, 1.0))
            epst2 = epst1 * float(rng.uniform(0.2, 1.0))
            delta = float(rng.uniform(0.0, 0.9))
            alpha = float(rng.uniform(0.0, 0.9))
            p = MixtureParams(m2=m2m, delta=delta, alpha=alpha, gamma=0.0,
                              eps1=1.0, epst1=epst1, eps2=1.0, epst2=epst2)
            gmax = p.gamma_max()
            p = MixtureParams(m2=m2m, delta=delta, alpha=alpha, gamma=float(rng.uniform(0, 0.9 * gmax)),
                              eps1=1.0, epst1=epst1, eps2=1.0, epst2=epst2)
            validate_params(p)
            u1_0, u2_0 = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            T1_0, T2_0 = float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2))
            n1, n2 = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
            ts, u1, u2, T1, T2 = moment_ode_run(u1_0, u2_0, T1_0, T2_0, p, n1, n2,
                                                dt=1e-4, t_end=0.2, output_every=200)
            ana_u = analytic_velocity_gap(ts, u1_0, u2_0, p, n1, n2)
            ana_T = analytic_temperature_gap(ts, u1_0, u2_0, T1_0, T2_0, p, n1, n2)
            scale_u = max(ana_u.max(), 1e-12)
            scale_T = max(np.abs(ana_T).max(), 1e-12)
            assert np.max(np.abs((u1 - u2) ** 2 - ana_u)) < 1e-5 * scale_u + 1e-12
            assert np.max(np.abs((T1 - T2) - ana_T)) < 1e-4 * scale_T + 1e-12
            checked += 1


class TestRelativeEntropy:
    def grid(self):
        return GridSpec(Nx=1, Nv=512)

    def test_maxwellian_self_entropy_zero(self):
        grid = self.grid()
        m = SpeciesMoments(n=1.2, u=0.1, T=0.4)
        f = maxwellian(m, 1.5, grid.v_nodes)
        assert abs(relative_entropy(f, m, 1.5, grid.v_nodes, grid.v_weights)) < 1e-10

    def test_gibbs_nonnegative(self):
        grid = self.grid()
        v = grid.v_nodes
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = gaussian(1.0, rng.uniform(-1, 1), rng.uniform(0.3, 2), v) * (1 + 0.3 * np.cos(v))
            f = np.clip(f, 0.0, None)
            m = cellwise_moments(f, grid, 1.0)
            assert relative_entropy(f, m, 1.0, grid.v_nodes, grid.v_weights) >= -1e-12

    def test_negative_samples_rejected(self):
        grid = self.grid()
        f = np.full(grid.Nv, -1e-3)
        with pytest.raises(ValueError, match="negative"):
            relative_entropy(f, SpeciesMoments(n=1.0, u=0.0, T=1.0), 1.0, grid.v_nodes, grid.v_weights)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan])
    def test_nonpositive_or_nan_temperature_rejected(self, T):
        grid = self.grid()
        f = maxwellian(SpeciesMoments(n=1.0, u=0.0, T=1.0), 1.0, grid.v_nodes)
        with pytest.raises(ValueError, match="requires T > 0"):
            relative_entropy(f, SpeciesMoments(n=1.0, u=0.0, T=T), 1.0, grid.v_nodes, grid.v_weights)

    def test_nan_sample_rejected(self):
        grid = self.grid()
        m = SpeciesMoments(n=1.0, u=0.0, T=1.0)
        f = maxwellian(m, 1.0, grid.v_nodes)
        f[3] = np.nan
        with pytest.raises(ValueError, match="negative"):
            relative_entropy(f, m, 1.0, grid.v_nodes, grid.v_weights)

    def test_tiny_negatives_clipped(self):
        grid = self.grid()
        m = SpeciesMoments(n=1.0, u=0.0, T=1.0)
        f = maxwellian(m, 1.0, grid.v_nodes)
        f[0] = -1e-15
        relative_entropy(f, m, 1.0, grid.v_nodes, grid.v_weights)  # must not raise

    def test_v4_entropy_positive_and_own_entropy_decays(self):
        grid = self.grid()
        v = grid.v_nodes
        f1 = v4_profile(v)
        m1 = cellwise_moments(f1, grid, 1.0)
        H0 = relative_entropy(f1, m1, 1.0, grid.v_nodes, grid.v_weights)
        assert H0 > 0.4
        f2 = maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, v)
        traj = kinetic_homogeneous_run(f1, f2, P1, grid, dt=2e-3, t_end=1.0, output_every=50)
        # the non-Maxwellian species' own relative entropy decays monotonically
        assert np.all(np.diff(traj.entropy1) < 0)


class TestKineticHomogeneousRun:
    def test_equal_moment_maxwellians_stationary(self):
        grid = GridSpec(Nx=1, Nv=256)
        v = grid.v_nodes
        m = SpeciesMoments(n=1.0, u=0.2, T=0.8)
        f1 = maxwellian(m, 1.0, v)
        f2 = maxwellian(SpeciesMoments(n=1.5, u=0.2, T=0.8), 1.5, v)
        traj = kinetic_homogeneous_run(f1, f2, P1, grid, dt=1e-2, t_end=0.2)
        assert np.max(np.abs(traj.f1 - f1)) < 1e-12
        assert np.max(np.abs(traj.f2 - f2)) < 1e-12

    def test_densities_constant(self):
        grid = GridSpec(Nx=1, Nv=512)
        v = grid.v_nodes
        traj = kinetic_homogeneous_run(
            v4_profile(v), maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, v),
            P1, grid, dt=2e-3, t_end=1.0, output_every=100,
        )
        assert np.max(np.abs(traj.n1 - traj.n1[0])) < 1e-12
        assert np.max(np.abs(traj.n2 - traj.n2[0])) < 1e-12

    def test_entropy_l1_bound(self):
        grid = GridSpec(Nx=1, Nv=512)
        v = grid.v_nodes
        traj = kinetic_homogeneous_run(
            v4_profile(v), maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, v),
            P1, grid, dt=2e-3, t_end=2.0, output_every=50,
        )
        C = decay_constants(P1, traj.n1[0], traj.n2[0]).C
        H0 = traj.entropy1[0] + traj.entropy2[0]
        bound = 4.0 * np.exp(-0.5 * C * traj.times) * np.sqrt(H0)
        assert np.all(traj.l1_gap1 + traj.l1_gap2 <= bound)

    def test_gaps_match_decay_laws(self):
        # v^4 initial data, Knudsen 1: measured gaps sit on the closed-form
        # decay curves even though species 1 starts far from Maxwellian
        grid = GridSpec(Nx=1, Nv=512)
        v = grid.v_nodes
        traj = kinetic_homogeneous_run(
            v4_profile(v), maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, v),
            P1, grid, dt=1e-3, t_end=1.0, output_every=100,
        )
        ana_u = analytic_velocity_gap(traj.times, 0.0, 0.1, P1, 1.0, 1.2)
        ana_T = analytic_temperature_gap(traj.times, 0.0, 0.1, 5.0, 0.1, P1, 1.0, 1.2)
        got_u = (traj.u1 - traj.u2) ** 2
        assert np.max(np.abs(got_u - ana_u)) < 1e-2 * ana_u[0]
        assert np.max(np.abs((traj.T1 - traj.T2) - ana_T)) < 1e-2 * np.abs(ana_T).max()

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "H(f1|M1)+H(f2|M2) is not a Lyapunov functional of the two-species "
            "relaxation system: for the v^4/cold-Maxwellian data the cold "
            "species immediately acquires the broad interaction-Maxwellian "
            "tails and its relative entropy grows faster than the other "
            "species' decays (confirmed independently by a from-scratch RK4 "
            "integration of the raw relaxation system, which shows the sum "
            "rising 0.499 -> 0.613 over t in [0, 0.057]). The single-species "
            "monotonicity argument needs int d/dt f_k ln M_k dv = 0, which "
            "fails once each species' moments evolve separately."
        ),
    )
    def test_entropy_sum_monotone(self):
        grid = GridSpec(Nx=1, Nv=512)
        v = grid.v_nodes
        traj = kinetic_homogeneous_run(
            v4_profile(v), maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, v),
            P1, grid, dt=2e-3, t_end=1.0, output_every=100,
        )
        H = np.array([h for _, h in traj.entropy_per_step])
        assert np.all(np.diff(H) <= 1e-10)

    def test_l1_gap_helper(self):
        grid = GridSpec(Nx=1, Nv=512)
        m = SpeciesMoments(n=1.0, u=0.0, T=1.0)
        f = maxwellian(m, 1.0, grid.v_nodes)
        assert l1_gap(f, m, 1.0, grid) < 1e-14


class TestRunClock:
    """Both library trajectories run on the package's one run clock."""

    def run(self, loop, dt, t_end, output_every=1):
        """The recorded times of the kinetic or the moment-ODE trajectory."""
        if loop == "moments":
            return moment_ode_run(*INIT, P1, N1, N2, dt=dt, t_end=t_end, output_every=output_every)[0]
        grid = GridSpec(Nx=1, Nv=128)
        f1 = v4_profile(grid.v_nodes)
        f2 = maxwellian(SpeciesMoments(n=1.2, u=0.1, T=0.1), 1.5, grid.v_nodes)
        traj = kinetic_homogeneous_run(f1, f2, P1, grid, dt=dt, t_end=t_end, output_every=output_every)
        assert traj.entropy_per_step[-1][0] == traj.times[-1]
        return traj.times

    @pytest.mark.parametrize("loop", ["kinetic", "moments"])
    def test_last_step_is_labelled_t_end(self, loop):
        # 9 * 1e-3 is 0.009000000000000001
        times = self.run(loop, dt=1e-3, t_end=0.009, output_every=4)
        assert times[-1] == 0.009
        assert np.array_equal(times[:-1], np.array([0, 4, 8]) * 1e-3)

    @pytest.mark.parametrize("loop", ["kinetic", "moments"])
    def test_t_end_not_a_whole_number_of_steps_rejected(self, loop):
        # 3 steps end at 0.009: labelling that row t_end would be wrong
        with pytest.raises(ValueError, match="t_end"):
            self.run(loop, dt=3e-3, t_end=1e-2)

    @pytest.mark.parametrize("loop", ["kinetic", "moments"])
    def test_output_every_below_one_rejected(self, loop):
        with pytest.raises(ValueError, match="output_every"):
            self.run(loop, dt=1e-3, t_end=0.009, output_every=0)

    @pytest.mark.parametrize("loop, name", [("kinetic", "dvm_step"), ("moments", "moment_ode_step")])
    def test_failing_step_aborts_the_run_naming_it(self, monkeypatch, loop, name):
        real, calls = getattr(homogeneous, name), []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("poisoned step")
            return real(*args)

        monkeypatch.setattr(homogeneous, name, failing)
        with pytest.raises(RuntimeError, match=r"run aborted at step 2/9 .*poisoned step") as err:
            self.run(loop, dt=1e-3, t_end=0.009)
        assert isinstance(err.value.__cause__, FloatingPointError)
