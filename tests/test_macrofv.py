import numpy as np
import pytest

from kinmix.macrofv import (
    CFLError,
    MacroState,
    PositivityError,
    conserved_from_moments,
    fv_step,
    maxwellian_flux,
    moments_from_conserved,
    numerical_flux,
    relaxation_source,
    relaxation_substeps,
)
from kinmix.model import MixtureParams, SpeciesMoments, maxwellian, validate_params

from oracles import gaussian, raw_moment, vgrid

P_005 = validate_params(MixtureParams(eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05))


def baseline_state(Nx=16):
    ones = np.ones(Nx)
    U1 = conserved_from_moments(SpeciesMoments(n=ones, u=0.5 * ones, T=ones), 1.0)
    U2 = conserved_from_moments(SpeciesMoments(n=1.2 * ones, u=0.1 * ones, T=0.1 * ones), 1.5)
    return MacroState(U1=U1, U2=U2, dx=4 * np.pi / Nx)


class TestMaxwellianFlux:
    def test_symmetric_maxwellian(self):
        U = conserved_from_moments(SpeciesMoments(n=np.array([2.0]), u=np.array([0.0]), T=np.array([0.7])), 1.0)
        F = maxwellian_flux(U, 1.0)
        assert F[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert F[0, 1] == pytest.approx(2.0 * 0.7, rel=1e-14)
        assert F[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_reference_values_and_quadrature(self):
        U = conserved_from_moments(SpeciesMoments(n=np.array([1.0]), u=np.array([0.5]), T=np.array([1.0])), 1.0)
        F = maxwellian_flux(U, 1.0)
        assert np.allclose(F[0], [0.5, 1.25, 1.625], atol=1e-14)
        v, w = vgrid()
        fv = gaussian(1.0, 0.5, 1.0, v)
        quad = [raw_moment(fv, v, w, k) for k in (1, 2, 3)]
        assert np.allclose(F[0], quad, atol=1e-10)

    def test_linear_in_density(self):
        m = SpeciesMoments(n=np.array([0.8]), u=np.array([-0.3]), T=np.array([0.4]))
        m2 = SpeciesMoments(n=2 * m.n, u=m.u, T=m.T)
        F1 = maxwellian_flux(conserved_from_moments(m, 1.5), 1.5)
        F2 = maxwellian_flux(conserved_from_moments(m2, 1.5), 1.5)
        assert np.allclose(F2, 2 * F1, rtol=1e-14)

    def test_nonpositive_temperature_raises(self):
        U = np.array([[1.0, 0.0, -0.5]])
        with pytest.raises(PositivityError):
            maxwellian_flux(U, 1.0)


class TestPositivity:
    @pytest.mark.parametrize("col", [0, 2])
    def test_nan_rejected_with_label(self, col):
        U = conserved_from_moments(SpeciesMoments(n=np.ones(4), u=np.zeros(4), T=np.ones(4)), 1.0)
        U[2, col] = np.nan
        with pytest.raises(PositivityError, match=r"\(species 2\)"):
            moments_from_conserved(U, 1.0, where="(species 2)")


class TestRelaxationSource:
    def test_equal_state_equilibrium(self):
        Nx = 4
        ones = np.ones(Nx)
        U1 = conserved_from_moments(SpeciesMoments(n=ones, u=0.2 * ones, T=0.9 * ones), 1.0)
        U2 = conserved_from_moments(SpeciesMoments(n=2 * ones, u=0.2 * ones, T=0.9 * ones), 1.5)
        S1, S2 = relaxation_source(U1, U2, P_005)
        assert np.max(np.abs(S1)) < 1e-14
        assert np.max(np.abs(S2)) < 1e-14

    def test_baseline_conservation_identity(self):
        st = baseline_state()
        S1, S2 = relaxation_source(st.U1, st.U2, P_005)
        assert np.max(np.abs(S1[:, 0])) == 0.0
        assert np.max(np.abs(S2[:, 0])) == 0.0
        assert np.max(np.abs(S1[:, 1] + 1.5 * S2[:, 1])) < 1e-12
        assert np.max(np.abs(S1[:, 2] + 1.5 * S2[:, 2])) < 1e-12

    def test_delta_alpha_degenerate_case_vs_quadrature(self):
        # delta=1 forces gamma=0; then u12=u1, T12=T1, u21=u2, T21=T2 and the
        # quadrature oracle gives identically zero sources (no remnant term)
        p = validate_params(MixtureParams(delta=1.0, alpha=1.0, gamma=0.0, eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05))
        st = baseline_state()
        S1, S2 = relaxation_source(st.U1, st.U2, p)
        v, w = vgrid()
        m1 = moments_from_conserved(st.U1, 1.0)
        M1v = gaussian(1.0, 0.5, 1.0, v)
        M12v = gaussian(1.0, 0.5, 1.0, v)  # u12=u1, T12=T1 at delta=alpha=1
        quad = np.array([raw_moment(M12v - M1v, v, w, k) for k in range(3)])
        assert np.allclose(quad, 0.0, atol=1e-12)
        assert np.max(np.abs(S1)) < 1e-14
        assert np.max(np.abs(S2)) < 1e-14


class TestRelaxationSubsteps:
    # rate = nu12 * max(n2/epst1, n1/epst2) = 2 exactly for these values
    P = validate_params(MixtureParams(eps1=0.5, epst1=0.5, eps2=0.5, epst2=0.5))

    def test_one_step_up_to_half_rate_time(self):
        n = np.array([1.0, 0.5])
        assert relaxation_substeps(0.25, n, n, self.P) == 1  # rate*dt = 0.5
        assert relaxation_substeps(np.nextafter(0.25, 1.0), n, n, self.P) == 2
        assert relaxation_substeps(1e-9, 1.0, 1.0, self.P) == 1

    @pytest.mark.parametrize("dt", [0.375, 0.5, 0.55, 1.0, 3.3])
    def test_ceil_of_twice_rate_time_beyond(self, dt):
        # densities enter through their maxima, scalars or per cell
        assert relaxation_substeps(dt, np.array([0.2, 1.0]), 1.0, self.P) == int(np.ceil(4.0 * dt))


class TestNumericalFlux:
    def test_consistency(self):
        st = baseline_state()
        F = numerical_flux(st.U1, st.U1, 1.0)
        assert np.allclose(F, maxwellian_flux(st.U1, 1.0), rtol=1e-14)

    def test_single_step_conservation_audit(self):
        # smooth periodic data; total U changes only through sources
        Nx = 32
        x = (np.arange(Nx) + 0.5) * (4 * np.pi / Nx)
        n = 1.0 + 0.1 * np.cos(x / 2)
        U1 = conserved_from_moments(SpeciesMoments(n=n, u=0.2 * np.sin(x / 2), T=1.0 + 0 * x), 1.0)
        U2 = conserved_from_moments(SpeciesMoments(n=1.2 * n, u=0.1 * np.cos(x / 2), T=0.5 + 0 * x), 1.5)
        st = MacroState(U1=U1, U2=U2, dx=4 * np.pi / Nx)
        p = validate_params(MixtureParams())
        new = fv_step(st, None, p, dt=1e-3)
        for k in (0,):  # mass rows: zero source, so exactly conserved
            assert np.sum(new.U1[:, k]) == pytest.approx(np.sum(st.U1[:, k]), abs=1e-12)
            assert np.sum(new.U2[:, k]) == pytest.approx(np.sum(st.U2[:, k]), abs=1e-12)
        # momentum/energy totals move only by the (conservative) source pair
        for k in (1, 2):
            tot_before = np.sum(st.U1[:, k] + 1.5 * st.U2[:, k])
            tot_after = np.sum(new.U1[:, k] + 1.5 * new.U2[:, k])
            assert tot_after == pytest.approx(tot_before, abs=1e-12)


class TestFvStep:
    def test_uniform_equal_state_preserved(self):
        Nx = 8
        ones = np.ones(Nx)
        m = SpeciesMoments(n=ones, u=0.3 * ones, T=0.8 * ones)
        st = MacroState(
            U1=conserved_from_moments(m, 1.0),
            U2=conserved_from_moments(SpeciesMoments(n=2 * ones, u=0.3 * ones, T=0.8 * ones), 1.5),
            dx=0.5,
        )
        p = validate_params(MixtureParams())
        new = fv_step(st, None, p, dt=1e-2)
        assert np.max(np.abs(new.U1 - st.U1)) < 1e-12
        assert np.max(np.abs(new.U2 - st.U2)) < 1e-12

    def test_uniform_unequal_state_transport_cancels(self):
        # uniform in x: the update must equal the pure-source update
        # (rate*dt = 0.024 here, so the source is applied in one step)
        st = baseline_state(Nx=8)
        p = P_005
        dt = 1e-3
        new = fv_step(st, None, p, dt=dt)
        S1, S2 = relaxation_source(st.U1, st.U2, p)
        assert np.allclose(new.U1, st.U1 + dt * S1, atol=1e-13)
        assert np.allclose(new.U2, st.U2 + dt * S2, atol=1e-13)
        assert np.allclose(new.U1[:, 0], st.U1[:, 0], atol=1e-15)

    def test_source_substepped_above_half_rate_time(self):
        # rate*dt = 24 * 0.03125 = 0.75: two half-steps, each source taken at
        # the state it advances (transport cancels on uniform data)
        st = baseline_state(Nx=8)
        dt = 0.75 / 24.0
        new = fv_step(st, None, P_005, dt=dt)
        U1, U2 = st.U1.copy(), st.U2.copy()
        for _ in range(2):
            S1, S2 = relaxation_source(U1, U2, P_005)
            U1, U2 = U1 + 0.5 * dt * S1, U2 + 0.5 * dt * S2
        assert np.allclose(new.U1, U1, rtol=1e-14, atol=0) and np.allclose(new.U2, U2, rtol=1e-14, atol=0)
        S1, S2 = relaxation_source(st.U1, st.U2, P_005)
        assert np.max(np.abs(new.U1 - (st.U1 + dt * S1))) > 1e-4  # not a single full step

    def test_mass_constant_any_step(self):
        st = baseline_state(Nx=16)
        new = fv_step(st, None, P_005, dt=5e-4)
        assert np.sum(new.U1[:, 0]) * st.dx == pytest.approx(np.sum(st.U1[:, 0]) * st.dx, abs=1e-12)
        assert np.sum(new.U2[:, 0]) * st.dx == pytest.approx(np.sum(st.U2[:, 0]) * st.dx, abs=1e-12)

    def test_total_momentum_conserved(self):
        Nx = 32
        x = (np.arange(Nx) + 0.5) * (4 * np.pi / Nx)
        U1 = conserved_from_moments(
            SpeciesMoments(n=1 + 0.05 * np.cos(x / 2), u=0.5 + 0.1 * np.sin(x / 2), T=1.0 + 0 * x), 1.0
        )
        U2 = conserved_from_moments(
            SpeciesMoments(n=1.2 + 0 * x, u=0.1 + 0 * x, T=0.5 + 0.05 * np.cos(x / 2)), 1.5
        )
        st = MacroState(U1=U1, U2=U2, dx=4 * np.pi / Nx)
        new = fv_step(st, None, P_005, dt=1e-3)
        P0 = np.sum(st.U1[:, 1] + 1.5 * st.U2[:, 1]) * st.dx
        P1 = np.sum(new.U1[:, 1] + 1.5 * new.U2[:, 1]) * st.dx
        assert abs(P1 - P0) < 1e-10

    def test_cfl_violation_names_required_dt(self):
        st = baseline_state(Nx=64)  # dx small
        with pytest.raises(CFLError, match="need dt <="):
            fv_step(st, None, P_005, dt=1.0)

    def test_particle_flux_divergence_applied(self):
        st = baseline_state(Nx=8)
        div = np.zeros((8, 3))
        div[:, 1] = 0.01
        zero = np.zeros((8, 3))
        dt = 1e-3
        with_div = fv_step(st, (div, zero), P_005, dt=dt)
        without = fv_step(st, None, P_005, dt=dt)
        assert np.allclose(with_div.U1[:, 1], without.U1[:, 1] - dt * 0.01, atol=1e-15)
