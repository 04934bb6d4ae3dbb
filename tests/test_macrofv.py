import numpy as np
import pytest

from kinmix import macrofv
from kinmix.macrofv import (
    CFLError,
    MacroState,
    PositivityError,
    conserved_from_moments,
    decay_constants,
    exchange_map,
    fv_step,
    maxwellian_flux,
    moments_from_conserved,
    relaxation_substeps,
    two_rate,
)
from kinmix.homogeneous import moment_ode_step
from kinmix.model import MixtureParams, SpeciesMoments, maxwellian, validate_params

from oracles import gaussian, raw_moment, relaxation_source, rusanov_fv_step, vgrid

P_005 = validate_params(MixtureParams(eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05))


def baseline_state(Nx=16):
    ones = np.ones(Nx)
    U1 = conserved_from_moments(SpeciesMoments(n=ones, u=0.5 * ones, T=ones), 1.0)
    U2 = conserved_from_moments(SpeciesMoments(n=1.2 * ones, u=0.1 * ones, T=0.1 * ones), 1.5)
    return MacroState(U1=U1, U2=U2, dx=4 * np.pi / Nx)


class TestMaxwellianFlux:
    def test_symmetric_maxwellian(self):
        U = conserved_from_moments(SpeciesMoments(n=np.array([2.0]), u=np.array([0.0]), T=np.array([0.7])), 1.0)
        F, s = maxwellian_flux(U, 1.0)
        assert F[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert F[0, 1] == pytest.approx(2.0 * 0.7, rel=1e-14)
        assert F[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert s[0] == pytest.approx(np.sqrt(3.0 * 0.7), rel=1e-14)

    def test_reference_values_and_quadrature(self):
        U = conserved_from_moments(SpeciesMoments(n=np.array([1.0]), u=np.array([0.5]), T=np.array([1.0])), 1.0)
        F, s = maxwellian_flux(U, 1.0)
        assert np.allclose(F[0], [0.5, 1.25, 1.625], atol=1e-14)
        assert s[0] == pytest.approx(0.5 + np.sqrt(3.0), rel=1e-14)
        v, w = vgrid()
        fv = gaussian(1.0, 0.5, 1.0, v)
        quad = [raw_moment(fv, v, w, k) for k in (1, 2, 3)]
        assert np.allclose(F[0], quad, atol=1e-10)

    def test_linear_in_density(self):
        m = SpeciesMoments(n=np.array([0.8]), u=np.array([-0.3]), T=np.array([0.4]))
        m2 = SpeciesMoments(n=2 * m.n, u=m.u, T=m.T)
        F1, s1 = maxwellian_flux(conserved_from_moments(m, 1.5), 1.5)
        F2, s2 = maxwellian_flux(conserved_from_moments(m2, 1.5), 1.5)
        assert np.allclose(F2, 2 * F1, rtol=1e-14)
        # the wave speed does not see the density; |u| + sqrt(3 T/mr)
        assert s1[0] == pytest.approx(0.3 + np.sqrt(3.0 * 0.4 / 1.5), rel=1e-14)
        assert s2[0] == pytest.approx(s1[0], rel=1e-14)

    def test_nonpositive_temperature_raises(self):
        U = np.array([[1.0, 0.0, -0.5]])
        with pytest.raises(PositivityError, match=r"\(species 2\)"):
            maxwellian_flux(U, 1.0, "(species 2)")


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


class TestFvStep:
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

    def test_matches_cellwise_rusanov_oracle(self):
        # non-uniform in every moment of both species, so every interface
        # carries a different flux and dissipation
        Nx = 32
        x = (np.arange(Nx) + 0.5) * (4 * np.pi / Nx)
        U1 = conserved_from_moments(SpeciesMoments(n=1.0 + 0.2 * np.cos(x / 2), u=0.3 * np.sin(x / 2),
                                                   T=1.0 + 0.3 * np.sin(x)), 1.0)
        U2 = conserved_from_moments(SpeciesMoments(n=1.2 - 0.3 * np.sin(x / 2), u=0.1 - 0.4 * np.cos(x),
                                                   T=0.5 + 0.2 * np.cos(x / 2)), 1.5)
        st = MacroState(U1=U1, U2=U2, dx=4 * np.pi / Nx)
        dt = 1e-2
        new = fv_step(st, None, P_005, dt)
        ref = rusanov_fv_step(U1, U2, st.dx, P_005, dt)
        for got, want in zip((new.U1, new.U2), ref):
            assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want), axis=0))

    @pytest.mark.parametrize("Nx", [16, 1])
    def test_inverts_each_species_twice(self, monkeypatch, Nx):
        # once for its flux and wave speed, once in the exchange map; one
        # periodic cell forms no flux, so only the exchange map inverts
        calls = []
        real = macrofv.moments_from_conserved

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(macrofv, "moments_from_conserved", counting)
        fv_step(baseline_state(Nx=Nx), None, P_005, dt=1e-3)
        assert len(calls) == (4 if Nx > 1 else 2)

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
        # uniform in x: the step is the exchange map alone
        st = baseline_state(Nx=8)
        new = fv_step(st, None, P_005, dt=1e-3)
        U1, U2 = exchange_map(st.U1, st.U2, P_005, 1e-3)
        assert np.max(np.abs(new.U1 - U1)) <= 1e-14 and np.max(np.abs(new.U2 - U2)) <= 1e-14
        assert np.array_equal(new.U1[:, 0], st.U1[:, 0])

    def test_stiff_step_reaches_finite_equilibrium(self):
        # rate*dt = 1.2e7 * dt = 1e6 in one step; transport cancels on
        # uniform data
        p = validate_params(MixtureParams(eps1=1e-7, epst1=1e-7, eps2=1e-7, epst2=1e-7))
        st = baseline_state(Nx=8)
        new = fv_step(st, None, p, dt=1e6 / 1.2e7)
        assert np.isfinite(new.U1).all() and np.isfinite(new.U2).all()
        for k in (1, 2):
            scale = np.abs(st.U1[:, k]) + 1.5 * np.abs(st.U2[:, k])
            change = new.U1[:, k] + 1.5 * new.U2[:, k] - (st.U1[:, k] + 1.5 * st.U2[:, k])
            assert np.all(np.abs(change) <= 16 * np.finfo(float).eps * scale)
        m1, m2 = moments_from_conserved(new.U1, 1.0), moments_from_conserved(new.U2, 1.5)
        assert np.max(np.abs(m1.u - m2.u)) <= 1e-15

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

    @pytest.mark.parametrize("Nx", [64, 1])
    def test_cfl_violation_names_required_dt(self, Nx):
        st = baseline_state(Nx=Nx)
        if Nx > 1:  # dx small
            with pytest.raises(CFLError, match="need dt <="):
                fv_step(st, None, P_005, dt=1.0)
            return
        # one periodic cell: the Rusanov difference is F - F, no CFL bound
        # applies, and the step is the exchange map bit for bit
        new = fv_step(st, None, P_005, dt=1.0)
        U1, U2 = exchange_map(st.U1, st.U2, P_005, 1.0)
        assert np.array_equal(new.U1, U1) and np.array_equal(new.U2, U2) and new.dx == st.dx

    def test_particle_flux_divergence_applied(self):
        st = baseline_state(Nx=8)
        div = np.zeros((8, 3))
        div[:, 1] = 0.01
        zero = np.zeros((8, 3))
        dt = 1e-3
        with_div = fv_step(st, (div, zero), P_005, dt=dt)
        without = fv_step(st, None, P_005, dt=dt)
        assert np.allclose(with_div.U1[:, 1], without.U1[:, 1] - dt * 0.01, atol=1e-15)


def random_params(rng, m2):
    """An admissible parameter draw with mass ratio m2 and Knudsen numbers of order one."""
    while True:
        epst1 = float(rng.uniform(0.2, 2.0))
        kw = dict(m2=m2, delta=float(rng.uniform(0.0, 0.95)), alpha=float(rng.uniform(0.0, 0.95)),
                  eps1=float(rng.uniform(0.2, 2.0)), epst1=epst1, eps2=float(rng.uniform(0.2, 2.0)),
                  epst2=epst1 * float(rng.uniform(0.2, 1.0)), nu12=float(rng.uniform(0.5, 2.0)))
        p = MixtureParams(gamma=0.0, **kw)
        if p.delta_min() <= p.delta:
            return validate_params(MixtureParams(gamma=float(rng.uniform(0.0, 0.9 * p.gamma_max())), **kw))


def random_cells(rng, p, Nx=5):
    """Per-cell conserved vectors of two species with random (n, u, T)."""
    U1 = conserved_from_moments(SpeciesMoments(n=rng.uniform(0.5, 2, Nx), u=rng.uniform(-1, 1, Nx),
                                               T=rng.uniform(0.2, 2, Nx)), 1.0)
    U2 = conserved_from_moments(SpeciesMoments(n=rng.uniform(0.5, 2, Nx), u=rng.uniform(-1, 1, Nx),
                                               T=rng.uniform(0.2, 2, Nx)), p.mass_ratio2)
    return U1, U2


# six random draws over m2/m1 in {1, 1.5, 4}, and m1 = m2 with
# (1 - alpha) = 2 (1 - delta), where C1 == C3 exactly
EXCHANGE_PARAMS = [random_params(np.random.default_rng(s), m2) for s, m2 in enumerate((1.0, 1.0, 1.5, 1.5, 4.0, 4.0))]
EXCHANGE_PARAMS.append(validate_params(MixtureParams(m2=1.0, delta=0.75, alpha=0.5, gamma=0.1)))


class TestExchangeMap:
    @pytest.mark.parametrize("k", range(len(EXCHANGE_PARAMS)))
    @pytest.mark.parametrize("h, nsub", [(1e-3, 1), (5e-2, 500)])
    def test_matches_rk4_moment_odes_per_cell(self, k, h, nsub):
        # the exact map over h against nsub RK4 steps of the moment ODEs,
        # cell by cell; the gaps relative to their starting size
        p = EXCHANGE_PARAMS[k]
        U1, U2 = random_cells(np.random.default_rng(100 + k), p)
        m1, m2 = moments_from_conserved(U1, 1.0), moments_from_conserved(U2, p.mass_ratio2)
        ref = (m1.u, m2.u, m1.T, m2.T)
        for _ in range(nsub):
            ref = moment_ode_step(*ref, p, m1.n, m2.n, h / nsub)
        V1, V2 = exchange_map(U1, U2, p, h)
        a, b = moments_from_conserved(V1, 1.0), moments_from_conserved(V2, p.mass_ratio2)
        got = (a.u, b.u, a.T, b.T)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r) / np.abs(r)) <= 1e-12
        du0, dT0 = np.abs(m1.u - m2.u), np.abs(m1.T - m2.T) + (m1.u - m2.u) ** 2
        assert np.max(np.abs((a.u - b.u) - (ref[0] - ref[1])) / du0) <= 1e-12
        assert np.max(np.abs((a.T - b.T) - (ref[2] - ref[3])) / dT0) <= 1e-12

    @pytest.mark.parametrize("k", range(len(EXCHANGE_PARAMS)))
    @pytest.mark.parametrize("h", [1e-3, 1.0, 1e3])
    def test_keeps_densities_and_total_momentum_and_energy(self, k, h):
        p = EXCHANGE_PARAMS[k]
        U1, U2 = random_cells(np.random.default_rng(200 + k), p)
        V1, V2 = exchange_map(U1, U2, p, h)
        assert np.array_equal(V1[:, 0], U1[:, 0]) and np.array_equal(V2[:, 0], U2[:, 0])
        for j in (1, 2):
            # round-off: a few ulp of the cell's summed |terms|
            scale = np.abs(U1[:, j]) + p.mass_ratio2 * np.abs(U2[:, j])
            change = V1[:, j] + p.mass_ratio2 * V2[:, j] - (U1[:, j] + p.mass_ratio2 * U2[:, j])
            assert np.all(np.abs(change) <= 16 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("alpha, delta", [(0.1, 0.9), (0.9, 0.1)])
    def test_finite_equilibrium_at_huge_rate_times(self, alpha, delta):
        # (0.1, 0.9) has C1 > C3, (0.9, 0.1) has C1 < C3; the step has
        # C h >= 1e6 for both rates, and every cell lands on the common
        # velocity and temperature its totals allow
        p = validate_params(MixtureParams(m2=1.0, alpha=alpha, delta=delta, gamma=0.0))
        U1, U2 = random_cells(np.random.default_rng(7), p)
        c = decay_constants(p, U1[:, 0], U2[:, 0])
        h = 1e6 / np.min(np.minimum(c.C1, c.C3))
        assert (c.C1 > c.C3).all() if alpha < delta else (c.C1 < c.C3).all()
        V1, V2 = exchange_map(U1, U2, p, h)
        assert np.isfinite(V1).all() and np.isfinite(V2).all()
        n1, n2 = U1[:, 0], U2[:, 0]
        u = (U1[:, 1] + U2[:, 1]) / (n1 + n2)
        T = (U1[:, 2] + U2[:, 2] - (n1 + n2) * u * u) / (n1 + n2)
        a, b = moments_from_conserved(V1, 1.0), moments_from_conserved(V2, 1.0)
        for m in (a, b):
            assert np.allclose(m.u, u, rtol=0, atol=1e-14) and np.allclose(m.T, T, rtol=1e-13, atol=0)

    def test_two_rate_continuous_at_equal_rates(self):
        h = np.array([1e-3, 0.1, 2.0, 50.0])
        for C in (0.3, 7.0):
            at = two_rate(C, C, h)
            assert np.allclose(at, h * np.exp(-C * h), rtol=1e-15, atol=0)
            for near in (C + 1e-9, C - 1e-9):
                # its C3-derivative at C3 = C1 is -h^2 e^{-C1 h}/2: a relative move of h/2 * 1e-9
                assert np.all(np.abs(two_rate(C, near, h) - at) <= 1e-9 * h * at)
                assert np.array_equal(two_rate(C, near, h), two_rate(near, C, h))
            # well apart, it is the textbook difference quotient
            far = C + 0.5
            assert np.allclose(two_rate(C, far, h), (np.exp(-far * h) - np.exp(-C * h)) / (C - far), rtol=1e-13, atol=0)
