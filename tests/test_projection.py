"""The projection onto span{M, vM, |v|^2 M}: the closed-form oracle of
`oracles.py` checked against quadrature, and the package's bracket,
evaluator and Hermite Gram matrix checked against that oracle and against
pairwise sums; the Maxwellian-at-samples kernel against `model.maxwellian`."""
import numpy as np
import pytest

from kinmix.grids import GridSpec
from kinmix.model import MixtureParams, SpeciesMoments, exchange_quantities, maxwellian, validate_params
from kinmix.particles import ParticleSet, sort_by_cell
from kinmix.projection import bracket, eval_projection, hermite_gram, maxwellian_samples

from oracles import (
    complement_at,
    gaussian,
    hermite_gram_pairwise,
    project_cross_maxwellian,
    project_from_moments,
    projection_at,
    raw_moment,
    vgrid,
)

M1 = SpeciesMoments(n=1.0, u=0.5, T=1.0)
M2 = SpeciesMoments(n=1.2, u=0.1, T=0.1)
P61 = validate_params(MixtureParams())


def quad_phi_moments(phi_v, m, mr, v, w):
    """The three moment functionals (<phi>, <(v-u)phi>, <|v-u|^2 phi>)."""
    return (
        float(np.sum(w * phi_v)),
        float(np.sum(w * (v - m.u) * phi_v)),
        float(np.sum(w * (v - m.u) ** 2 * phi_v)),
    )


class TestProjectFromMoments:
    def test_maxwellian_is_fixed_point(self):
        v, w = vgrid()
        th = M1.T
        coeffs = project_from_moments(M1, 1.0, (M1.n, 0.0, M1.n * th))
        pi = projection_at(coeffs, v)
        assert np.max(np.abs(pi - maxwellian(M1, 1.0, v))) < 1e-14

    def test_zero_moments_give_zero_function(self):
        v, _ = vgrid()
        coeffs = project_from_moments(M2, 1.5, (0.0, 0.0, 0.0))
        assert np.max(np.abs(projection_at(coeffs, v))) == 0.0

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError, match="n <= 0"):
            project_from_moments(SpeciesMoments(n=0.0, u=0.0, T=1.0), 1.0, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("m,mr", [(M1, 1.0), (M2, 1.5)])
    def test_projection_preserves_moments(self, m, mr):
        # random smooth phi: projection must reproduce its three moments
        v, w = vgrid()
        rng = np.random.default_rng(3)
        for _ in range(5):
            phi = (
                rng.normal() * gaussian(1.0, rng.uniform(-1, 1), rng.uniform(0.3, 2.0), v)
                + rng.normal() * v * gaussian(1.0, 0.0, 1.0, v)
            )
            mom = quad_phi_moments(phi, m, mr, v, w)
            pi = projection_at(project_from_moments(m, mr, mom), v)
            mom_pi = quad_phi_moments(pi, m, mr, v, w)
            assert np.allclose(mom, mom_pi, atol=1e-10)

    def test_idempotence(self):
        v, w = vgrid()
        phi = gaussian(0.8, -0.4, 0.6, v) + 0.3 * v**2 * gaussian(1.0, 0.2, 1.1, v)
        mom = quad_phi_moments(phi, M1, 1.0, v, w)
        c1 = project_from_moments(M1, 1.0, mom)
        pi1 = projection_at(c1, v)
        c2 = project_from_moments(M1, 1.0, quad_phi_moments(pi1, M1, 1.0, v, w))
        for f in ("a0", "a1", "a2"):
            assert abs(getattr(c1, f) - getattr(c2, f)) < 1e-12

    def test_kernel_of_complement(self):
        v, w = vgrid()
        phi = gaussian(1.0, 0.7, 0.5, v) * (1 + 0.2 * np.sin(v))
        mom = quad_phi_moments(phi, M1, 1.0, v, w)
        coeffs = project_from_moments(M1, 1.0, mom)
        resid = complement_at(phi, coeffs, v)
        for k in range(3):
            assert abs(raw_moment(resid, v, w, k)) < 1e-10


class TestCrossMaxwellianProjection:
    def test_coincident_moments_give_identity(self):
        ex = exchange_quantities(M1, SpeciesMoments(n=2.0, u=M1.u, T=M1.T), P61)
        # u12 = u1 and T12 = T1 here, so Pi_{M1}(M12) = M1
        coeffs = project_cross_maxwellian(M1, ex, 1, 1.0)
        v, _ = vgrid()
        assert np.max(np.abs(projection_at(coeffs, v) - maxwellian(M1, 1.0, v))) < 1e-14

    @pytest.mark.parametrize("species,mr", [(1, 1.0), (2, 1.5)])
    def test_closed_form_matches_quadrature(self, species, mr):
        v, w = vgrid()
        ex = exchange_quantities(M1, M2, P61)
        mk = M1 if species == 1 else M2
        if species == 1:
            cross = gaussian(M1.n, ex.u12, ex.T12, v)
        else:
            cross = gaussian(M2.n, ex.u21, ex.T21 / mr, v)
        closed = project_cross_maxwellian(mk, ex, species, mr)
        from_quad = project_from_moments(mk, mr, quad_phi_moments(cross, mk, mr, v, w))
        pc, pq = projection_at(closed, v), projection_at(from_quad, v)
        assert np.max(np.abs(pc - pq)) < 1e-10

    def test_species2_zero_velocity_term(self):
        # u21 = u2 (delta = 1) kills the first-order coefficient exactly
        p = validate_params(MixtureParams(delta=1.0, gamma=0.0))
        ex = exchange_quantities(M1, M2, p)
        coeffs = project_cross_maxwellian(M2, ex, 2, 1.5)
        assert coeffs.a1 == pytest.approx(0.0, abs=1e-15)

    def test_projection_function_identities(self):
        # (1 - Pi)(M_k) = 0 and Pi of a zero-moment function is 0
        v, w = vgrid()
        Mk_v = maxwellian(M1, 1.0, v)
        mom = quad_phi_moments(Mk_v, M1, 1.0, v, w)
        coeffs = project_from_moments(M1, 1.0, mom)
        assert np.max(np.abs(complement_at(Mk_v, coeffs, v))) < 1e-10
        # odd zero-moment function: phi = (v-u)^3 exp(...) has nonzero third
        # central moment; build a genuinely zero-moment phi instead
        phi = gaussian(1.0, M1.u, 0.5, v) - gaussian(1.0, M1.u, 0.5, v)
        coeffs0 = project_from_moments(M1, 1.0, quad_phi_moments(phi, M1, 1.0, v, w))
        assert np.max(np.abs(projection_at(coeffs0, v))) == 0.0


class TestComplement:
    def test_maxwellian_complement_zero(self):
        v, w = vgrid()
        Mk_v = maxwellian(M2, 1.5, v)
        coeffs = project_from_moments(M2, 1.5, quad_phi_moments(Mk_v, M2, 1.5, v, w))
        assert np.max(np.abs(complement_at(Mk_v, coeffs, v))) < 1e-10

    def test_v_times_maxwellian_complement_has_zero_moments(self):
        m = SpeciesMoments(n=1.0, u=0.0, T=1.0)
        v, w = vgrid()
        phi = v * maxwellian(m, 1.0, v)
        coeffs = project_from_moments(m, 1.0, quad_phi_moments(phi, m, 1.0, v, w))
        resid = complement_at(phi, coeffs, v)
        for k in range(3):
            assert abs(raw_moment(resid, v, w, k)) < 1e-10

    def test_equal_state_cross_complement_zero(self):
        mb = SpeciesMoments(n=0.6, u=M1.u, T=M1.T)
        ex = exchange_quantities(M1, mb, P61)
        v, _ = vgrid()
        cross = gaussian(M1.n, ex.u12, ex.T12, v)
        coeffs = project_cross_maxwellian(M1, ex, 1, 1.0)
        assert np.max(np.abs(complement_at(cross, coeffs, v))) < 1e-13


class TestEvalProjection:
    """The package's bracket + evaluator against the closed-form oracle, on
    per-cell arrays of moments."""

    N = np.array([1.0, 1.3, 0.6, 2.0])
    U = np.array([0.0, 0.4, -0.7, 1.1])
    T = np.array([1.0, 0.3, 2.5, 0.8])

    def phi_moments(self):
        """Per-cell moments (<phi>, <(v-u) phi>, <(v-u)^2 phi>) of random
        two-Gaussian functions phi, by quadrature."""
        v, w = vgrid()
        rng = np.random.default_rng(17)
        mom = np.empty((3, self.N.size))
        for c, u in enumerate(self.U):
            phi = rng.normal() * gaussian(1.0, rng.uniform(-1, 1), rng.uniform(0.3, 2.0), v) + rng.normal() * (
                v * gaussian(0.7, rng.uniform(-1, 1), rng.uniform(0.3, 2.0), v)
            )
            mom[:, c] = [np.sum(w * (v - u) ** k * phi) for k in range(3)]
        return mom

    def oracle(self, mr, mom, cell, v):
        m = SpeciesMoments(n=self.N[cell], u=self.U[cell], T=self.T[cell])
        return projection_at(project_from_moments(m, mr, tuple(mom[:, cell])), v)

    @pytest.mark.parametrize("mr", [1.0, 1.5])
    def test_grid_rows_equal_closed_form(self, mr):
        v = np.linspace(-6.0, 6.0, 97)
        th = self.T / mr
        mom = self.phi_moments()
        h1 = (v[None, :] - self.U[:, None]) / np.sqrt(th)[:, None]
        M = gaussian(self.N[:, None], self.U[:, None], th[:, None], v[None, :])
        out = np.empty_like(M)
        got = eval_projection(bracket(*mom, self.N, th), h1, M, lambda a: a[:, None], out)
        want = self.oracle(mr, mom, np.arange(self.N.size)[:, None], v[None, :])
        assert got is out
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_particles_in_cell_order_equal_closed_form(self):
        mr = 1.5
        grid = GridSpec(Lx=4.0, Nx=self.N.size, Lv=20.0, Nv=8)
        rng = np.random.default_rng(4)
        ps = ParticleSet(x=rng.uniform(0.0, grid.Lx, 400), v=rng.uniform(-5.0, 5.0, 400), w=np.zeros(400))
        ps, cells = sort_by_cell(ps, grid)
        x, v = ps.x, ps.v
        cell = grid.cell_index(x)
        th = self.T / mr
        mom = self.phi_moments()
        h1 = (v - self.U[cell]) / np.sqrt(th[cell])
        M = gaussian(self.N[cell], self.U[cell], th[cell], v)
        got = eval_projection(bracket(*mom, self.N, th), h1, M, cells.repeat, np.empty_like(v))
        want = self.oracle(mr, mom, cell, v)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


class TestMaxwellianSamples:
    """The one cell-Maxwellian kernel against `model.maxwellian`, whose
    operations differ (division by 2 theta instead of scaling by
    1/sqrt(theta)): agreement to a few ulp of each cell's peak."""

    N = np.array([1.0, 1.3, 0.6, 2.0])
    U = np.array([0.0, 0.4, -0.7, 1.1])
    T = np.array([1.0, 0.3, 2.5, 0.8])

    def assert_close(self, got, want, peak):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(peak))

    @pytest.mark.parametrize("mr", [1.0, 1.5])
    def test_grid_rows_agree_with_model_maxwellian(self, mr):
        v = np.linspace(-6.0, 6.0, 97)
        th = self.T / mr
        h1, M = np.empty((self.N.size, v.size)), np.empty((self.N.size, v.size))
        got = maxwellian_samples(v, self.U, th, self.N, lambda a: a[:, None], h1, M)
        want = maxwellian(SpeciesMoments(n=self.N[:, None], u=self.U[:, None], T=self.T[:, None]), mr, v[None, :])
        assert got is M
        assert np.allclose(h1, (v[None, :] - self.U[:, None]) / np.sqrt(th)[:, None], rtol=1e-15, atol=0.0)
        self.assert_close(got, want, want.max(axis=1, keepdims=True))

    def test_particles_in_cell_order_agree_with_model_maxwellian(self):
        mr = 1.5
        grid = GridSpec(Lx=4.0, Nx=self.N.size, Lv=20.0, Nv=8)
        rng = np.random.default_rng(6)
        ps = ParticleSet(x=rng.uniform(0.0, grid.Lx, 400), v=rng.uniform(-5.0, 5.0, 400), w=np.zeros(400))
        ps, cells = sort_by_cell(ps, grid)
        v = ps.v
        cell = grid.cell_index(ps.x)
        got = maxwellian_samples(v, self.U, self.T / mr, self.N, cells.repeat, np.empty(v.size), np.empty(v.size))
        want = maxwellian(SpeciesMoments(n=self.N[cell], u=self.U[cell], T=self.T[cell]), mr, v)
        self.assert_close(got, want, (self.N / np.sqrt(2.0 * np.pi * self.T / mr))[cell])

    def test_result_into_h1_buffer_has_the_same_bits(self):
        v = np.linspace(-6.0, 6.0, 97)
        args = (v, self.U, self.T / 1.5, self.N, lambda a: a[:, None])
        shape = (self.N.size, v.size)
        separate = maxwellian_samples(*args, np.empty(shape), np.empty(shape))
        buf = np.empty(shape)
        aliased = maxwellian_samples(*args, buf, buf)
        assert aliased is buf and np.array_equal(aliased, separate)


class TestHermiteGram:
    def test_grid_rows_match_pairwise_quadrature(self):
        grid = GridSpec(Nx=3, Nv=64)
        v, wq = grid.v_nodes, grid.v_weights
        n = np.array([1.0, 1.2, 0.7])
        u = np.array([0.0, 0.3, -0.5])
        th = np.array([5.0, 0.5, 1.3])
        h1 = (v[None, :] - u[:, None]) / np.sqrt(th)[:, None]
        M = gaussian(n[:, None], u[:, None], th[:, None], v[None, :])
        G = hermite_gram(M, h1, lambda a: a @ wq)
        ref = hermite_gram_pairwise(M.ravel(), h1.ravel(), np.repeat(np.arange(3), grid.Nv), 3, np.tile(wq, 3))
        assert G.shape == (3, 3, 3)
        assert np.allclose(G, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())

    def test_particle_segments_match_pairwise_sums(self):
        # empty, 1-particle and 2-particle cells next to populated ones
        counts = [0, 1, 2, 7, 0, 3]
        grid = GridSpec(Lx=6.0, Nx=6, Lv=20.0, Nv=64)
        rng = np.random.default_rng(5)
        cell = np.repeat(np.arange(grid.Nx), counts)
        x = (cell + rng.uniform(0.1, 0.9, cell.size)) * grid.dx
        v = rng.uniform(-3.0, 3.0, cell.size)
        u, th = 0.3, 1.4
        h1 = (v - u) / np.sqrt(th)
        M = gaussian(1.0, u, th, v)
        G = hermite_gram(M, h1, sort_by_cell(ParticleSet(x=x, v=v, w=M), grid)[1].sum)
        ref = hermite_gram_pairwise(M, h1, cell, grid.Nx)
        assert np.allclose(G, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())
        assert not G[[0, 4]].any()
