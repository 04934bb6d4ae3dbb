import numpy as np
import pytest

from kinmix.model import (
    MixtureParams,
    ParameterError,
    SpeciesMoments,
    exchange_quantities,
    maxwellian,
    relaxations,
    validate_params,
)
from kinmix.macrofv import conserved_from_moments

from oracles import beta1, beta2, gaussian, maxwellian_v3_moment, nuT, raw_moment, vgrid

BASE_MIX = dict(m1=1.0, m2=1.5, delta=0.5, alpha=0.5, gamma=0.1)
M1_REF = SpeciesMoments(n=1.0, u=0.5, T=1.0)
M2_REF = SpeciesMoments(n=1.2, u=0.1, T=0.1)


def params(eps1=1.0, epst1=1.0, eps2=1.0, epst2=1.0, **kw):
    base = dict(BASE_MIX)
    base.update(kw)
    return MixtureParams(eps1=eps1, epst1=epst1, eps2=eps2, epst2=epst2, **base)


class TestValidateParams:
    @pytest.mark.parametrize(
        "kn",
        [
            (0.05, 0.05, 0.05, 0.05),
            (0.01, 0.01, 0.01, 0.01),
            (1.0, 1.0, 1.0, 1.0),
            (1000.0, 1000.0, 1000.0, 1000.0),
            (1e-2, 1e-2, 1e-2, 1e-2),
            (1.0, 1.0, 1.0, 0.05),      # mixed interspecies set
            (1e-2, 1000.0, 1e-2, 1000.0),  # fluid intra / kinetic inter
        ],
    )
    @pytest.mark.parametrize("m2", [1.0, 1.5])
    def test_experiment_family_accepted(self, kn, m2):
        p = validate_params(params(*kn, m2=m2))
        assert 0 < p.eps <= 1

    def test_equal_mass_point_valid(self):
        # m1=m2=1, eps=1, delta=alpha=0.5, gamma=0.1
        validate_params(params(m2=1.0))

    def test_delta_one_gamma_zero_boundary(self):
        validate_params(params(delta=1.0, gamma=0.0))
        assert params(delta=1.0).gamma_max() == 0.0

    def test_gamma_bound(self):
        # m1=m2=1, eps=1, delta=0.5 -> gamma_max = 0.5
        p = params(m2=1.0)
        assert p.gamma_max() == pytest.approx(0.5, abs=1e-15)
        validate_params(params(m2=1.0, gamma=0.5))
        with pytest.raises(ParameterError, match="gamma"):
            validate_params(params(m2=1.0, gamma=0.6))

    def test_eps_greater_one_rejected_with_swap_hint(self):
        with pytest.raises(ParameterError, match="swap the species"):
            validate_params(params(epst1=0.05, epst2=1.0))

    def test_delta_bounds(self):
        p = params()
        assert p.delta_min() == pytest.approx(-0.2)
        with pytest.raises(ParameterError, match="delta"):
            validate_params(params(delta=-0.3, gamma=0.0))
        with pytest.raises(ParameterError, match="delta"):
            validate_params(params(delta=1.1, gamma=0.0))

    def test_alpha_bounds(self):
        with pytest.raises(ParameterError, match="alpha"):
            validate_params(params(alpha=1.2))

    @pytest.mark.parametrize("field", ["eps1", "epst1", "eps2", "epst2"])
    def test_positive_knudsen(self, field):
        with pytest.raises(ParameterError, match=field):
            validate_params(params(**{field: 0.0}))

    def test_positive_masses_and_nu(self):
        with pytest.raises(ParameterError, match="mass"):
            validate_params(params(m2=-1.0))
        # a NaN mass is named as such, not blamed on delta downstream
        with pytest.raises(ParameterError, match="masses must be positive"):
            validate_params(params(m1=np.nan))
        with pytest.raises(ParameterError, match="nu12"):
            validate_params(params(nu12=0.0))

    def test_derived_ratios(self):
        p = params(eps1=0.5, epst1=1.0, eps2=0.25, epst2=0.75)
        assert p.eps == pytest.approx(0.75)
        assert beta1(p) == pytest.approx(2.0)
        assert beta2(p) == pytest.approx(3.0)


class TestExchangeQuantities:
    def test_equal_state_fixed_point(self):
        p = validate_params(params())
        m = SpeciesMoments(n=1.0, u=0.3, T=0.7)
        m2 = SpeciesMoments(n=2.0, u=0.3, T=0.7)
        ex = exchange_quantities(m, m2, p)
        assert ex.u12 == pytest.approx(0.3, abs=1e-15)
        assert ex.u21 == pytest.approx(0.3, abs=1e-15)
        assert ex.T12 == pytest.approx(0.7, abs=1e-15)
        assert ex.T21 == pytest.approx(0.7, abs=1e-15)

    def test_reference_state_values(self):
        # closed-form hand evaluation; cross-checked below against the
        # conservation identities, which pin u21 = 7/30 and T21 = 941/1500
        p = validate_params(params())
        ex = exchange_quantities(M1_REF, M2_REF, p)
        assert ex.u12 == pytest.approx(0.3, abs=1e-14)
        assert ex.T12 == pytest.approx(0.566, abs=1e-14)
        assert ex.u21 == pytest.approx(7.0 / 30.0, abs=1e-14)
        assert ex.T21 == pytest.approx(941.0 / 1500.0, abs=1e-14)

    def test_delta_one_decouples_velocities(self):
        p = validate_params(params(delta=1.0, gamma=0.0))
        ex = exchange_quantities(M1_REF, M2_REF, p)
        assert ex.u12 == pytest.approx(M1_REF.u, abs=1e-15)
        assert ex.u21 == pytest.approx(M2_REF.u, abs=1e-15)

    def test_relabel_symmetry_identical_species(self):
        # identical species, symmetric weights; the temperature rule is
        # swap-symmetric when gamma = delta(1-delta)
        p = validate_params(params(m2=1.0, gamma=0.25))
        a = SpeciesMoments(n=1.0, u=0.4, T=0.9)
        b = SpeciesMoments(n=1.3, u=-0.2, T=0.3)
        ex = exchange_quantities(a, b, p)
        ex_sw = exchange_quantities(b, a, p)
        assert ex_sw.u12 == pytest.approx(ex.u21, abs=1e-14)
        assert ex_sw.u21 == pytest.approx(ex.u12, abs=1e-14)
        assert ex_sw.T12 == pytest.approx(ex.T21, abs=1e-14)
        assert ex_sw.T21 == pytest.approx(ex.T12, abs=1e-14)

    def test_momentum_exchange_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m2m = float(rng.uniform(0.5, 3.0))
            epst1 = float(rng.uniform(0.05, 2.0))
            epst2 = epst1 * float(rng.uniform(0.1, 1.0))
            p = MixtureParams(m2=m2m, delta=0.5, alpha=0.5, gamma=0.0,
                              epst1=epst1, epst2=epst2)
            validate_params(p)
            a = SpeciesMoments(n=float(rng.uniform(0.5, 2)), u=float(rng.uniform(-1, 1)), T=float(rng.uniform(0.1, 3)))
            b = SpeciesMoments(n=float(rng.uniform(0.5, 2)), u=float(rng.uniform(-1, 1)), T=float(rng.uniform(0.1, 3)))
            ex = exchange_quantities(a, b, p)
            lhs = (1 / p.epst1) * p.nu12 * b.n * a.n * (ex.u12 - a.u)
            rhs = (p.m2 / p.m1) * (1 / p.epst2) * p.nu12 * a.n * b.n * (ex.u21 - b.u)
            assert abs(lhs + rhs) < 1e-12

    def test_energy_exchange_identity_vs_quadrature(self):
        # derive the dimensionless energy-exchange form by quadrature of
        # <v^2 (M12 - M1)> and <v^2 (M21 - M2)>, then check the frozen
        # closed form and the weighted cancellation
        v, w = vgrid()
        rng = np.random.default_rng(7)
        for _ in range(10):
            m2m = float(rng.uniform(0.6, 2.5))
            epst1 = float(rng.uniform(0.05, 1.0))
            epst2 = epst1 * float(rng.uniform(0.2, 1.0))
            p = validate_params(
                MixtureParams(m2=m2m, delta=0.4, alpha=0.3, gamma=0.05, epst1=epst1, epst2=epst2)
            )
            a = SpeciesMoments(n=1.1, u=float(rng.uniform(-0.5, 0.5)), T=float(rng.uniform(0.3, 2)))
            b = SpeciesMoments(n=0.8, u=float(rng.uniform(-0.5, 0.5)), T=float(rng.uniform(0.3, 2)))
            ex = exchange_quantities(a, b, p)
            mr2 = p.m2 / p.m1
            dE1_q = raw_moment(
                gaussian(a.n, ex.u12, ex.T12, v) - gaussian(a.n, a.u, a.T, v), v, w, 2
            )
            dE2_q = raw_moment(
                gaussian(b.n, ex.u21, ex.T21 / mr2, v) - gaussian(b.n, b.u, b.T / mr2, v), v, w, 2
            )
            dE1 = a.n * (ex.T12 + ex.u12**2 - a.T - a.u**2)
            dE2 = b.n * ((ex.T21 - b.T) / mr2 + ex.u21**2 - b.u**2)
            assert dE1 == pytest.approx(dE1_q, abs=1e-10)
            assert dE2 == pytest.approx(dE2_q, abs=1e-10)
            total = (1 / p.epst1) * p.nu12 * b.n * dE1 + mr2 * (1 / p.epst2) * p.nu12 * a.n * dE2
            assert abs(total) < 1e-12
            # the same balance, read through the relaxation views
            dP = dE = 0.0
            for sp in relaxations(a, b, ex, p):
                m = sp.moments
                dP += sp.mr * sp.inter * m.n * (sp.u_cross - m.u)
                dE += sp.mr * sp.inter * m.n * ((sp.T_cross - m.T) / sp.mr + sp.u_cross**2 - m.u**2)
            assert abs(dP) < 1e-12 and abs(dE) < 1e-12


class TestRelaxations:
    # four distinct Knudsen numbers, distinct densities and a mass ratio of
    # 1.5: exchanging any species index in `relaxations` changes a value
    P = validate_params(params(eps1=0.5, epst1=0.4, eps2=0.3, epst2=0.2, nu12=0.7))
    M1 = SpeciesMoments(n=np.array([1.0, 1.4]), u=np.array([0.5, -0.2]), T=np.array([1.0, 0.6]))
    M2 = SpeciesMoments(n=np.array([1.2, 0.8]), u=np.array([0.1, 0.3]), T=np.array([0.1, 0.9]))

    def test_views_follow_the_per_species_formulas(self):
        m1, m2 = self.M1, self.M2
        ex = exchange_quantities(m1, m2, self.P)
        sp1, sp2 = relaxations(m1, m2, ex, self.P)
        assert (sp1.mr, sp2.mr) == (1.0, 1.5)
        assert sp1.moments is m1 and sp2.moments is m2
        # the operations of the formulas, so the bits agree
        assert np.array_equal(sp1.intra, 0.7 * m1.n / 0.5)
        assert np.array_equal(sp1.inter, 0.7 * m2.n / 0.4)
        assert np.array_equal(sp2.intra, 0.7 * m2.n / 0.3)
        assert np.array_equal(sp2.inter, 0.7 * m1.n / 0.2)
        assert sp1.u_cross is ex.u12 and sp1.T_cross is ex.T12
        assert sp2.u_cross is ex.u21 and sp2.T_cross is ex.T21
        assert not np.allclose(ex.u12, ex.u21) and not np.allclose(ex.T12, ex.T21)


class TestMaxwellian:
    def test_zero_density(self):
        v = np.linspace(-5, 5, 11)
        assert np.all(maxwellian(SpeciesMoments(n=0.0, u=0.0, T=1.0), 1.0, v) == 0.0)

    def test_peak_value(self):
        m = SpeciesMoments(n=1.2, u=0.1, T=0.1)
        mr = 1.5
        val = maxwellian(m, mr, np.array([0.1]))[0]
        assert val == pytest.approx(1.2 * np.sqrt(mr / (2 * np.pi * 0.1)), rel=1e-15)

    def test_equals_closed_form_bit_for_bit_and_leaves_v_alone(self):
        # per-cell moments against a read-only row of nodes, as the driver
        # reconstructs f; the result is a new array
        m = SpeciesMoments(n=np.array([[0.7], [1.2], [2.0]]), u=np.array([[-0.3], [0.1], [1.4]]),
                           T=np.array([[0.4], [1.0], [2.5]]))
        v = np.linspace(-6.0, 6.0, 41)
        v.setflags(write=False)
        th = m.T / 1.5
        closed = m.n / np.sqrt(2.0 * np.pi * th) * np.exp(-((v[None, :] - m.u) ** 2) / (2.0 * th))
        f = maxwellian(m, 1.5, v[None, :])
        assert np.array_equal(f, closed)
        assert not np.shares_memory(f, v)
        assert np.array_equal(v, np.linspace(-6.0, 6.0, 41))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="T > 0"):
            maxwellian(SpeciesMoments(n=1.0, u=0.0, T=0.0), 1.0, np.zeros(3))

    @pytest.mark.parametrize("m,mr", [(M1_REF, 1.0), (M2_REF, 1.5), (SpeciesMoments(n=0.7, u=-1.3, T=2.4), 2.0)])
    def test_quadrature_recovers_moments(self, m, mr):
        # wide grid per the stated oracle: >=256 nodes covering u +- 8 sigma
        sig = np.sqrt(m.T / mr)
        v = np.linspace(m.u - 8 * sig, m.u + 8 * sig, 2001)
        w = np.full(v.size, v[1] - v[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        fv = maxwellian(m, mr, v)
        assert raw_moment(fv, v, w, 0) == pytest.approx(m.n, abs=1e-10)
        assert raw_moment(fv, v, w, 1) == pytest.approx(m.n * m.u, abs=1e-10)
        second = float(np.sum(w * mr * (v - m.u) ** 2 * fv))
        assert second == pytest.approx(m.n * m.T, abs=1e-10)


class TestEquilibriumMoments:
    def test_unit_centered(self):
        n, nu, E = conserved_from_moments(SpeciesMoments(n=1.0, u=0.0, T=1.0), 1.0)
        assert (n, nu, E) == (1.0, 0.0, 1.0)

    def test_species2_energy_vs_quadrature(self):
        n, nu, E = conserved_from_moments(M2_REF, 1.5)
        assert E == pytest.approx(0.092, abs=1e-15)
        v, w = vgrid()
        fv = maxwellian(M2_REF, 1.5, v)
        assert E == pytest.approx(raw_moment(fv, v, w, 2), abs=1e-10)

    def test_third_moment_odd(self):
        assert maxwellian_v3_moment(SpeciesMoments(n=2.0, u=0.0, T=0.5), 1.0) == 0.0

    def test_third_moment_vs_quadrature(self):
        v, w = vgrid()
        fv = maxwellian(M1_REF, 1.0, v)
        assert maxwellian_v3_moment(M1_REF, 1.0) == pytest.approx(raw_moment(fv, v, w, 3), abs=1e-10)
