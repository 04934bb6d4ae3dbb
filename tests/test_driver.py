import json

import numpy as np
import pytest

from kinmix.config import RunConfig, parse_config
from kinmix.driver import run, setup_simulation, step
from kinmix.homogeneous import moment_ode_run, relative_entropy
from kinmix.macrofv import MacroState, PositivityError, conserved_from_moments, moments_from_conserved
from kinmix.model import (
    ExchangeQuantities,
    MixtureParams,
    Relaxation,
    SpeciesMoments,
    exchange_quantities,
    relaxations,
    validate_params,
)
from kinmix.particles import Cells, ParticleSet, cell_sums, init_particles, local_maxwellian, sort_by_cell
from kinmix.grids import GridSpec

from oracles import complement_at, gaussian, project_cross_maxwellian, project_from_moments, projection_at, vgrid


def equilibrium_state(grid, p):
    ones = np.ones(grid.Nx)
    m = SpeciesMoments(n=ones, u=0.2 * ones, T=0.8 * ones)
    m2 = SpeciesMoments(n=1.5 * ones, u=0.2 * ones, T=0.8 * ones)
    macro = MacroState(
        U1=conserved_from_moments(m, 1.0),
        U2=conserved_from_moments(m2, p.mass_ratio2),
        dx=grid.dx,
    )
    zero = lambda x, v: np.zeros_like(x)
    ps1 = init_particles(zero, grid, 4000, seed=1)
    ps2 = init_particles(zero, grid, 4000, seed=2)
    from kinmix.driver import SimState

    return SimState(macro=macro, ps1=ps1, ps2=ps2)


def rebinned_f(sim, bins, moments, p, grid):
    """Reference `driver._reconstruct_f` that ignores `bins` and bins both
    species afresh, by cell and velocity, at every call."""
    from kinmix.model import maxwellian

    vb, out = grid.v_bin_centers, []
    for m, mr, ps in zip(moments, (1.0, p.mass_ratio2), (sim.ps1, sim.ps2)):
        f = maxwellian(SpeciesMoments(n=m.n[:, None], u=m.u[:, None], T=m.T[:, None]), mr, vb[None, :])
        vi = np.clip(((ps.v + 0.5 * grid.Lv) / grid.dv_bin).astype(np.int64), 0, grid.Nv - 1)
        H = np.bincount(grid.cell_index(ps.x) * grid.Nv + vi, weights=ps.w, minlength=grid.Nx * grid.Nv)
        H /= grid.dx * grid.dv_bin
        f += H.reshape(grid.Nx, grid.Nv)
        out.append(f)
    return out


def restore_cell_bookkeeping(mp):
    """Patch (with the monkeypatch `mp`) the bookkeeping that a grouping of
    one cell skips back in: the step counts the particles of a one-cell grid
    by `GridSpec.cell_index` too, every grouping spreads its fields by
    `np.repeat`, the step's weight update multiplies the source into the
    spread gain, and `driver._reconstruct_f` bins by cell and velocity at
    every record (`rebinned_f`)."""
    import kinmix.driver as driver

    sort = driver.sort_by_cell

    def sort_by_cell(ps, grid):
        if grid.Nx > 1:
            return sort(ps, grid)
        return ps, Cells(np.bincount(grid.cell_index(ps.x), minlength=grid.Nx))

    def repeat(self, field):
        return np.repeat(np.broadcast_to(np.asarray(field, dtype=float), self.counts.shape), self.counts)

    def update_weights(ps, source_eval, lam, dt, volume, cells, work):
        lam = np.broadcast_to(np.asarray(lam, dtype=float), cells.counts.shape)
        s = source_eval(ps.x, ps.v)
        gain = np.where(lam > 0.0, -np.expm1(-lam * dt) / np.where(lam > 0.0, lam, 1.0), dt) * volume
        w = ps.w * cells.repeat(np.exp(-lam * dt))
        gain = cells.repeat(gain)
        gain *= s
        w += gain
        return ParticleSet(x=ps.x, v=ps.v, w=w)

    mp.setattr(driver, "sort_by_cell", sort_by_cell)
    mp.setattr(Cells, "repeat", repeat)
    mp.setattr(driver, "update_weights", update_weights)
    mp.setattr(driver, "_reconstruct_f", rebinned_f)


def source_at(source_for, sp, grid, x, v):
    """The source that `_micro_source` makes, at the points (x, v): evaluated
    on the points in cell order (`sort_by_cell`), returned in their order."""
    # w carries each point's place in the input through the sort
    pts, cells = sort_by_cell(ParticleSet(x=x, v=v, w=np.arange(x.size, dtype=float)), grid)
    out = np.empty(x.size)
    out[pts.w.astype(int)] = source_for(cells, local_maxwellian(pts.v, cells, sp.moments, sp.mr))(pts.x, pts.v)
    return out


def species1_view(mk, n_other, p):
    """Species 1 relaxing toward an interaction Maxwellian displaced from
    its own by (0.1, 0.2) in (u, T)."""
    return Relaxation(mr=1.0, moments=mk, intra=p.nu12 * mk.n / p.eps1, inter=p.nu12 * n_other / p.epst1,
                      u_cross=mk.u + 0.1, T_cross=mk.T + 0.2)


class TestMicroSource:
    def test_transport_source_matches_quadrature_projection(self):
        # -(1 - Pi)(v dx M) from the driver's closed-form Gaussian moments,
        # checked pointwise against quadrature moments + the closed-form oracle
        from kinmix.driver import _centered_dx, _flux_divergence, _micro_source

        grid = GridSpec(Lx=4 * np.pi, Nx=8, Lv=20.0, Nv=64)
        x = grid.x_centers
        mk = SpeciesMoments(n=1.0 + 0.2 * np.cos(x / 2), u=0.3 * np.sin(x / 2), T=1.0 + 0.1 * np.cos(x))
        zero_rate = np.zeros(grid.Nx)
        G = np.zeros((4, grid.Nx))
        sp = Relaxation(mr=1.0, moments=mk, intra=mk.n, inter=zero_rate, u_cross=mk.u, T_cross=mk.T)
        src, lam = _micro_source(sp, grid, _flux_divergence(G, grid.dx))

        c = 3
        th = mk.T  # species 1
        A = _centered_dx(mk.n, grid.dx) / mk.n
        B = _centered_dx(mk.u, grid.dx) / th
        Cc = _centered_dx(th, grid.dx) / (2 * th * th)
        vq = np.linspace(-12, 12, 4001)
        wq = np.full(vq.size, vq[1] - vq[0])
        wq[0] *= 0.5
        wq[-1] *= 0.5
        mloc = SpeciesMoments(n=mk.n[c], u=mk.u[c], T=mk.T[c])
        from kinmix.model import maxwellian as maxw

        Mv = maxw(mloc, 1.0, vq)
        w = vq - mk.u[c]
        phi1 = vq * Mv * (A[c] + B[c] * w + Cc[c] * (w * w - th[c]))
        mom = (
            float(np.sum(wq * phi1)),
            float(np.sum(wq * w * phi1)),
            float(np.sum(wq * w * w * phi1)),
        )
        coeffs = project_from_moments(mloc, 1.0, mom)

        sample = np.linspace(-6, 6, 41)
        ws = sample - mk.u[c]
        Mv_s = maxw(mloc, 1.0, sample)
        phi1_s = sample * Mv_s * (A[c] + B[c] * ws + Cc[c] * (ws * ws - th[c]))
        expected = -complement_at(phi1_s, coeffs, sample)
        xs = np.full(sample.size, x[c])
        got = source_at(src, sp, grid, xs, sample)
        assert np.allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("species", [1, 2])
    def test_full_source_matches_closed_form_projection_at_any_point(self, species):
        # S = -(1 - Pi)(v dx M_k) + Pi(v dx g) + rate (M_kj - Pi M_kj) at
        # scattered (x, v), with a nonzero remainder and cross rate and
        # m2/m1 = 1.5, against the closed-form projection
        from kinmix.driver import _flux_divergence, _micro_source

        grid = GridSpec(Lx=4 * np.pi, Nx=8, Lv=20.0, Nv=64)
        xc = grid.x_centers
        p = validate_params(MixtureParams(eps1=0.5, epst1=0.4, eps2=0.3, epst2=0.2))
        m1 = SpeciesMoments(n=1.0 + 0.3 * np.cos(xc / 2), u=0.5 + 0.3 * np.sin(xc / 2), T=1.0 + 0.3 * np.cos(xc / 2))
        m2 = SpeciesMoments(n=1.2 + 0.2 * np.sin(xc / 2), u=-0.5 + 0.2 * np.cos(xc / 2), T=0.6 + 0.2 * np.sin(xc / 2))
        ex = exchange_quantities(m1, m2, p)
        if species == 1:
            mr, mk, n_other, epst = 1.0, m1, m2.n, p.epst1
            u_cross, theta_cross = ex.u12, ex.T12
        else:
            mr, mk, n_other, epst = p.mass_ratio2, m2, m1.n, p.epst2
            u_cross, theta_cross = ex.u21, ex.T21 / p.mass_ratio2
        G = np.random.default_rng(8).normal(size=(4, grid.Nx)) * 0.05
        sp = relaxations(m1, m2, ex, p)[species - 1]
        src, _ = _micro_source(sp, grid, _flux_divergence(G, grid.dx))

        def ddx(a):
            return (np.roll(a, -1) - np.roll(a, 1)) / (2.0 * grid.dx)

        n, u, th = mk.n, mk.u, mk.T / mr
        dn, du, dth = ddx(n), ddx(u), ddx(th)

        def v_dx_maxwellian(c, v):
            # v dx M_k from the chain rule through (n, u, theta)
            w = v - u[c]
            dM = dn[c] / n[c] + du[c] * w / th[c] + dth[c] * (w * w - th[c]) / (2.0 * th[c] ** 2)
            return v * gaussian(n[c], u[c], th[c], v) * dM

        vq, wq = vgrid(12.0, 4001)
        cells = np.arange(grid.Nx)[:, None]
        phi1 = v_dx_maxwellian(cells, vq[None, :])
        mom1 = [np.sum(wq * (vq[None, :] - u[:, None]) ** k * phi1, axis=1) for k in range(3)]
        dG1, dG2, dG3 = ddx(G[1]), ddx(G[2]), ddx(G[3])
        mom_g = (dG1, dG2 - u * dG1, dG3 - 2.0 * u * dG2 + u * u * dG1)

        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, grid.Lx, 600)
        v = rng.uniform(-6.0, 6.0, 600)
        c = np.floor(x / grid.dx).astype(int)
        mc = SpeciesMoments(n=n[c], u=u[c], T=mk.T[c])
        exc = ExchangeQuantities(u12=ex.u12[c], T12=ex.T12[c], u21=ex.u21[c], T21=ex.T21[c])
        rate = p.nu12 * n_other[c] / epst
        cross = gaussian(n[c], u_cross[c], theta_cross[c], v)
        expected = (
            -complement_at(v_dx_maxwellian(c, v), project_from_moments(mc, mr, [m[c] for m in mom1]), v)
            + projection_at(project_from_moments(mc, mr, [m[c] for m in mom_g]), v)
            + rate * complement_at(cross, project_cross_maxwellian(mc, exc, species, mr), v)
        )
        got = source_at(src, sp, grid, x, v)
        assert np.abs(expected).max() > 0.1
        assert np.allclose(got, expected, rtol=0.0, atol=1e-10)

    def test_source_moments_equal_remainder_flux_gradient(self):
        # <m(v) S> must reduce to the gradients of the deposited <m v g>
        # rows: the complement terms and cross drive carry zero moments
        from kinmix.driver import _centered_dx, _flux_divergence, _micro_source

        grid = GridSpec(Lx=4 * np.pi, Nx=8, Lv=20.0, Nv=64)
        x = grid.x_centers
        mk = SpeciesMoments(n=1.0 + 0.1 * np.cos(x / 2), u=0.2 * np.sin(x / 2), T=np.full(8, 1.1))
        n_other = 1.2 + 0.05 * np.sin(x / 2)
        rng = np.random.default_rng(8)
        G = rng.normal(size=(4, grid.Nx)) * 0.01
        p = validate_params(MixtureParams(eps1=0.5, epst1=0.5, eps2=0.5, epst2=0.5))
        sp = species1_view(mk, n_other, p)
        src, _ = _micro_source(sp, grid, _flux_divergence(G, grid.dx))

        vq = np.linspace(-12, 12, 4001)
        wq = np.full(vq.size, vq[1] - vq[0])
        wq[0] *= 0.5
        wq[-1] *= 0.5
        for c in (0, 5):
            xs = np.full(vq.size, x[c])
            S = source_at(src, sp, grid, xs, vq)
            got = [float(np.sum(wq * vq**k * S)) for k in range(3)]
            want = [
                float(_centered_dx(G[1], grid.dx)[c]),
                float(_centered_dx(G[2], grid.dx)[c]),
                float(_centered_dx(G[3], grid.dx)[c]),
            ]
            assert np.allclose(got, want, atol=1e-8)


class TestStep:
    def test_global_equilibrium_invariant(self):
        grid = GridSpec(Nx=16, Nv=64)
        p = validate_params(MixtureParams())
        sim = equilibrium_state(grid, p)
        U1_0, U2_0 = sim.macro.U1.copy(), sim.macro.U2.copy()
        for _ in range(5):
            sim, diag = step(sim, p, grid, dt=5e-3)
        assert np.max(np.abs(sim.macro.U1 - U1_0)) < 1e-10
        assert np.max(np.abs(sim.macro.U2 - U2_0)) < 1e-10
        assert np.max(np.abs(sim.ps1.w)) < 1e-10
        assert np.max(np.abs(sim.ps2.w)) < 1e-10

    def test_matching_enforced_every_step(self):
        cfg = RunConfig(mode="general", Nx=32, Nv=64, Np1=20000, Np2=20000, seed=5,
                        dt=1e-2, t_end=0.0, m1=1.0, m2=1.0, preset="cosine-perturbed",
                        eps1=1.0, epst1=1.0, eps2=1.0, epst2=1.0, beta=0.1)
        grid, p, sim = setup_simulation(cfg)
        for _ in range(5):
            sim, diag = step(sim, p, grid, cfg.dt)
            assert np.max(np.abs(cell_sums(sim.ps1, grid))) < 1e-12
            assert np.max(np.abs(cell_sums(sim.ps2, grid))) < 1e-12
            # the step's own residual record; no cell needs a second solve
            assert diag.refined_cells == 0 and 0.0 < diag.match_residual < 1e-12


    def test_macro_step_reads_the_particle_flux_divergence(self):
        # the macro state advances by fv_step fed with the centred divergence
        # of each pushed species' deposited moments; species 2 of the cosine
        # preset carries a remainder, so leaving the divergence out shows
        from kinmix.driver import _flux_divergence
        from kinmix.macrofv import fv_step
        from kinmix.particles import deposit, push, sort_by_cell

        cfg = RunConfig(**self.STEP_CFGS["general"])
        grid, p, sim = setup_simulation(cfg)
        divs = []
        for ps in (sim.ps1, sim.ps2):
            moved, cells = sort_by_cell(push(ps, cfg.dt, grid), grid)
            divs.append(_flux_divergence(deposit(moved, grid, cells=cells), grid.dx))
        assert np.abs(divs[1]).max() > 1e-3
        want = fv_step(sim.macro, tuple(divs), p, cfg.dt)
        got, _ = step(sim, p, grid, cfg.dt)
        assert np.array_equal(got.macro.U1, want.U1) and np.array_equal(got.macro.U2, want.U2)

    STEP_CFGS = {
        "general": dict(mode="general", Nx=16, Nv=32, Np1=3000, Np2=4000, seed=4, dt=1e-2, t_end=0.0,
                        m1=1.0, m2=1.0, preset="cosine-perturbed", beta=0.1),
        # Nx = 1 never sorts, so the stepped sets share v (and the update reads w) with their input
        "homogeneous": dict(mode="homogeneous", Nx=1, Nv=64, Np1=3000, Np2=2000, seed=4, dt=1e-3, t_end=0.0,
                            eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05, preset="v4-maxwellian"),
    }

    @staticmethod
    def arrays(sim):
        return [a for ps in (sim.ps1, sim.ps2) for a in (ps.x, ps.v, ps.w)] + [sim.macro.U1, sim.macro.U2]

    @pytest.mark.parametrize("mode", ["general", "homogeneous"])
    def test_step_neither_mutates_nor_aliases_its_input(self, mode):
        cfg = RunConfig(**self.STEP_CFGS[mode])
        grid, p, sim = setup_simulation(cfg)
        once, _ = step(sim, p, grid, cfg.dt)
        again, _ = step(sim, p, grid, cfg.dt)
        assert all(np.array_equal(a, b) for a, b in zip(self.arrays(once), self.arrays(again)))
        assert once.work is again.work is sim.work

        kept = once
        frozen = [a.copy() for a in self.arrays(kept)]
        later = kept
        for _ in range(2):
            later, _ = step(later, p, grid, cfg.dt)
            buffers = list(later.work.buffers.values())
            assert buffers
            for ps in (later.ps1, later.ps2):
                for a in (ps.x, ps.v, ps.w):
                    assert not any(np.shares_memory(a, b) for b in buffers)
        assert all(np.array_equal(a, b) for a, b in zip(self.arrays(kept), frozen))

    def test_step_temporaries_stay_within_frozen_bound(self):
        # tracemalloc, not RSS: the peak of 3 steps of the criterion-7 physics
        # at 2 x 2e5 particles above the memory the resulting state holds, in
        # particle-array units 8 (Np1 + Np2) bytes; it includes the workspace.
        # Frozen at the value measured before the step workspace: 7.15.
        import tracemalloc

        cfg = RunConfig(mode="general", Lx=4 * np.pi, Lv=20.0, Nx=128, Nv=128, Np1=200_000, Np2=200_000,
                        seed=3, dt=1e-2, t_end=3e-2, m1=1.0, m2=1.0, delta=0.5, alpha=0.5, gamma=0.1, nu12=1.0,
                        eps1=1e-2, epst1=1000.0, eps2=1e-2, epst2=1000.0, preset="cosine-perturbed", beta=1e-2)
        grid, p, sim = setup_simulation(cfg)
        tracemalloc.start()
        try:
            for _ in range(3):
                sim, _ = step(sim, p, grid, cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = sum(a.nbytes for ps in (sim.ps1, sim.ps2) for a in (ps.x, ps.v, ps.w))
        assert (peak - state) / (8 * (cfg.Np1 + cfg.Np2)) <= 7.15

    @staticmethod
    def block_case():
        """(grid, params, macro state, ps1, ps2) on 8 cells with empty cells,
        cells of 1-2 particles, which matching skips, and a cell of 300
        particles; no particle leaves its cell in a step."""
        grid = GridSpec(Nx=8, Nv=32)
        p = validate_params(MixtureParams(eps1=0.5, epst1=0.5, eps2=0.5, epst2=0.5))
        xc = grid.x_centers
        rng = np.random.default_rng(12)

        def species(counts):
            c = np.repeat(np.arange(grid.Nx), counts)
            x = (c + 0.5 + rng.uniform(-0.3, 0.3, c.size)) * grid.dx
            return ParticleSet(x=x, v=rng.normal(size=c.size), w=1e-3 * rng.normal(size=c.size))

        ps1 = species([300, 0, 1, 2, 80, 90, 0, 100])
        ps2 = species([50, 120, 0, 2, 1, 60, 70, 40])
        m1 = SpeciesMoments(n=1.0 + 0.2 * np.cos(xc / 2), u=0.1 * np.sin(xc / 2), T=1.0 + 0.1 * np.cos(xc / 2))
        m2 = SpeciesMoments(n=1.3 + 0.1 * np.sin(xc / 2), u=-0.2 * np.cos(xc / 2), T=0.8 + 0.1 * np.sin(xc / 2))
        macro = MacroState(U1=conserved_from_moments(m1, 1.0), U2=conserved_from_moments(m2, p.mass_ratio2), dx=grid.dx)
        return grid, p, macro, ps1, ps2

    def test_relaxation_blocks_change_no_bit(self, monkeypatch):
        # the relaxation runs block by block; every split gives the same
        # states and diagnostics bit for bit: one block per filled cell
        # (BLOCK = 1), a split mid-way with one cell above the limit, and
        # each set as one block
        import kinmix.particles as particles
        from kinmix.driver import SimState

        grid, p, macro, ps1, ps2 = self.block_case()
        monkeypatch.setattr(particles, "BLOCK", 200)
        split = particles.blocks(*particles.sort_by_cell(ps1, grid))
        assert [b[1].Np for b in split] == [300, 173, 100]

        runs = []
        for limit in (1, 200, ps1.Np):
            monkeypatch.setattr(particles, "BLOCK", limit)
            sim, got = SimState(macro=macro, ps1=ps1, ps2=ps2), []
            for _ in range(2):
                sim, diag = step(sim, p, grid, 1e-3)
                got.append((self.arrays(sim), diag))
            runs.append(got)
        assert runs[0][0][1].skipped_cells == 4
        for other in runs[1:]:
            for (a, da), (b, db) in zip(runs[0], other):
                assert da == db
                assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_deposit_blocks_change_no_bit(self, monkeypatch):
        # the deposit sums block by block; every split gives the sums of the
        # whole set, in the moments v^j built up by one running product
        import kinmix.particles as particles

        grid, _, _, ps1, ps2 = self.block_case()
        for ps in (ps1, ps2):
            ps, cells = sort_by_cell(ps, grid)
            whole, wk = [], ps.w
            for _ in range(4):
                whole.append(cells.sum(wk))
                wk = wk * ps.v
            whole = np.array(whole)
            for limit in (1, 200, ps.Np):
                monkeypatch.setattr(particles, "BLOCK", limit)
                assert np.array_equal(particles.deposit(ps, grid, cells), whole / grid.dx)
                assert np.array_equal(particles.cell_sums(ps, grid), whole[:3])

    @pytest.mark.parametrize("limit", [1, 200])
    def test_one_cell_blocks_match_cell_bookkeeping_bit_for_bit(self, monkeypatch, limit):
        # blocks of one cell, among them cell 0 with 300 > BLOCK particles,
        # spread nothing; the states and diagnostics of two steps are those
        # of the same blocks spreading by np.repeat
        import kinmix.particles as particles
        from kinmix.driver import SimState

        grid, p, macro, ps1, ps2 = self.block_case()
        monkeypatch.setattr(particles, "BLOCK", limit)
        split = particles.blocks(*particles.sort_by_cell(ps1, grid))
        assert split[0][2].counts.size == 1 and split[0][1].Np == 300 > limit

        runs = []
        for legacy in (False, True):
            with monkeypatch.context() as mp:
                if legacy:
                    restore_cell_bookkeeping(mp)
                sim, got = SimState(macro=macro, ps1=ps1, ps2=ps2), []
                for _ in range(2):
                    sim, diag = step(sim, p, grid, 1e-3)
                    got.append((self.arrays(sim), diag))
                runs.append(got)
        for (a, da), (b, db) in zip(*runs):
            assert da == db
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("Nx, limit", [(8, 200), (8, 10**6), (1, 10**6)])
    def test_match_hook_receives_the_populated_cells_of_each_block(self, monkeypatch, Nx, limit):
        # perfbench's traced runs wrap `match`, read the grid as args[1] and
        # count np.bincount(idx, minlength=grid.Nx)'s nonzero entries as the
        # block's populated cells: the step passes idx by keyword, and it
        # names each populated cell of the block, and only those
        import kinmix.driver as driver
        import kinmix.particles as particles
        from kinmix.driver import SimState

        grid, p, macro, ps1, ps2 = self.block_case()
        if Nx == 1:
            grid = GridSpec(Lx=grid.Lx, Nx=1, Nv=grid.Nv)
            macro = MacroState(U1=macro.U1[:1], U2=macro.U2[:1], dx=grid.dx)
        monkeypatch.setattr(particles, "BLOCK", limit)
        calls, original = [], driver.match

        def match(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(driver, "match", match)
        step(SimState(macro=macro, ps1=ps1, ps2=ps2), p, grid, 1e-3)
        blocks_per_species = len(particles.blocks(*particles.sort_by_cell(ps1, grid)))
        assert len(calls) == blocks_per_species + len(particles.blocks(*particles.sort_by_cell(ps2, grid)))
        assert blocks_per_species == (3 if limit == 200 else 1)
        for args, kwargs in calls:
            assert args[1] is grid
            cb, idx = kwargs["cells"] if "cells" in kwargs else args[3], kwargs["idx"]
            assert np.count_nonzero(np.bincount(idx, minlength=grid.Nx)) == np.count_nonzero(cb.counts)
            assert np.all((cb.span.start <= idx) & (idx < cb.span.stop))
            assert np.array_equal(np.bincount(idx - cb.span.start, minlength=cb.counts.size) > 0, cb.counts > 0)

    def test_step_buffers_are_sized_by_the_block(self):
        # at Np >> BLOCK every workspace buffer holds at most one block:
        # BLOCK floats, or the particles of the largest cell
        from kinmix.particles import BLOCK

        cfg = RunConfig(mode="general", Nx=128, Nv=32, Np1=4 * BLOCK, Np2=3 * BLOCK, seed=6, dt=1e-2, t_end=0.0,
                        m1=1.0, m2=1.0, preset="cosine-perturbed", beta=0.1)
        grid, p, sim = setup_simulation(cfg)
        largest = 0
        for _ in range(2):
            sim, _ = step(sim, p, grid, cfg.dt)
            largest = max([largest] + [int(np.bincount(grid.cell_index(ps.x)).max()) for ps in (sim.ps1, sim.ps2)])
        assert sim.work.buffers
        assert all(b.size <= max(BLOCK, largest) for b in sim.work.buffers.values())

    @pytest.mark.parametrize("species", [1, 2])
    def test_nan_state_raises_positivity_error_naming_species(self, species):
        # NaN fails every comparison; the watchdog must still stop it at the
        # step where it appears, on one cell too, where no CFL bound is checked
        p = validate_params(MixtureParams())
        for Nx in (16, 1):
            grid = GridSpec(Nx=Nx, Nv=64)
            sim = equilibrium_state(grid, p)
            U = sim.macro.U1 if species == 1 else sim.macro.U2
            U[5 % Nx, 2] = np.nan
            with pytest.raises(PositivityError, match=rf"species {species}"):
                step(sim, p, grid, dt=5e-3)

    def test_sim_state_type_hints_resolve(self):
        import typing

        from kinmix.driver import SimState

        hints = typing.get_type_hints(SimState)
        assert hints["ps1"] is ParticleSet and hints["macro"] is MacroState


class TestHomogeneousMode:
    CFG = dict(mode="homogeneous", Nx=1, Nv=128, Np1=2000, Np2=2000, seed=3,
               dt=1e-3, t_end=0.1, output_every=10,
               eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05,
               preset="maxwellian-maxwellian")

    def test_matches_moment_ode_module(self):
        cfg = RunConfig(**self.CFG)
        res = run(cfg)
        p = res.params
        ts, u1, u2, T1, T2 = moment_ode_run(0.5, 0.1, 1.0, 0.1, p, 1.0, 1.2,
                                            dt=cfg.dt, t_end=cfg.t_end, output_every=cfg.output_every)
        assert np.allclose(res.times, ts, atol=1e-12)
        assert np.max(np.abs(res.series["gap_u_sq"] - (u1 - u2) ** 2)) < 1e-8
        assert np.max(np.abs(res.series["gap_T_inf"] - np.abs(T1 - T2))) < 1e-8

    def test_densities_exactly_constant(self):
        res = run(RunConfig(**self.CFG))
        assert np.all(res.series["mass1"] == res.series["mass1"][0])
        assert np.all(res.series["mass2"] == res.series["mass2"][0])

    def test_v4_preset_carries_decaying_remainder(self):
        # non-Maxwellian start: weights are O(1) at t=0 and the remainder is
        # damped at the total relaxation rate while the gaps stay on the
        # closed-form curves
        cfg = RunConfig(mode="homogeneous", Nx=1, Nv=128, Np1=10000, Np2=10000, seed=21,
                        dt=1e-3, t_end=1.0, output_every=100,
                        eps1=1.0, epst1=1.0, eps2=1.0, epst2=1.0, preset="v4-maxwellian")
        res = run(cfg)
        w1 = res.series["sum_abs_w1"]
        assert w1[0] > 5.0
        assert w1[-1] / w1[0] < 0.2
        gu = res.series["gap_u_sq"]
        au = res.series["analytic_gap_u_sq"]
        m = gu > 1e-8
        assert np.max(np.abs(gu[m] / au[m] - 1)) < 1e-10

    def test_analytic_gap_finite_for_stiff_unequal_rates(self):
        # alpha=0.1, delta=0.9 at Knudsen 1e-5: (C1 - C3) t passes 709 after
        # a few steps, where e^{(C1 - C3) t} overflows; the parsed run's
        # closed-form column stays finite and decays to the run's own gap
        doc = {
            "mode": "homogeneous",
            "domain": {"Nx": 1, "Nv": 64},
            "particles": {"Np1": 2000, "Np2": 2000, "seed": 1},
            "time": {"dt": 1e-3, "t_end": 1e-2, "output_every": 1},
            "mixture": {"alpha": 0.1, "delta": 0.9},
            "knudsen": {"eps1": 1e-5, "epst1": 1e-5, "eps2": 1e-5, "epst2": 1e-5},
            "init": {"preset": "maxwellian-maxwellian"},
        }
        res = run(parse_config(json.dumps(doc)))
        ana = res.series["analytic_gap_T"]
        assert np.isfinite(ana).all()
        assert ana[0] == pytest.approx(0.9) and abs(ana[-1]) < 1e-12
        assert np.allclose(np.abs(ana), res.series["gap_T_inf"], rtol=0, atol=1e-12)

    def test_general_mode_on_one_cell_is_homogeneous_mode_bit_for_bit(self):
        # one step path for every mode: on one cell every transport term is
        # exactly zero, so dt = 5e-2, above the FV bound 0.0129 of this cell,
        # steps as the homogeneous mode does, and no particle moves
        base = dict(Nx=1, Lx=0.1, Nv=64, Np1=3000, Np2=2000, seed=1, dt=5e-2, t_end=0.5, output_every=2,
                    preset="v4-maxwellian")
        gen = run(RunConfig(mode="general", **base))
        hom = run(RunConfig(mode="homogeneous", **base))
        assert np.array_equal(gen.times, hom.times) and set(gen.series) < set(hom.series)
        for key in gen.series:
            assert np.array_equal(gen.series[key], hom.series[key]), key
        a, b = gen.final_state, hom.final_state
        for x, y in ((a.ps1.w, b.ps1.w), (a.ps2.w, b.ps2.w), (a.macro.U1, b.macro.U1), (a.macro.U2, b.macro.U2)):
            assert np.array_equal(x, y)
        assert np.abs(a.ps1.w).max() > 0.0

        grid, p, sim = setup_simulation(RunConfig(mode="general", **base))
        assert np.array_equal(a.ps1.x, sim.ps1.x) and np.array_equal(a.ps2.x, sim.ps2.x)
        stepped, _ = step(sim, p, grid, base["dt"])
        assert stepped.ps1.x is sim.ps1.x and stepped.ps2.x is sim.ps2.x

    def test_one_cell_path_matches_cell_bookkeeping_bit_for_bit(self, monkeypatch):
        # one cell: no cell index, no particle-length spread, no flux.  A
        # run (series, snapshots, final state) and a step give the same bits
        # as with every grouping indexed and spread as on many cells, and
        # the macro step taken as the Rusanov step written out
        import kinmix.driver as driver
        from oracles import rusanov_fv_step

        def fv_step(state, flux_div, p, dt):
            assert flux_div is None
            return MacroState(*rusanov_fv_step(state.U1, state.U2, state.dx, p, dt), dx=state.dx)

        cfg = RunConfig(mode="homogeneous", Nx=1, Nv=64, Np1=3000, Np2=2000, seed=5, dt=1e-3, t_end=5e-3,
                        output_every=1, eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05, preset="v4-maxwellian")
        results = []
        for legacy in (False, True):
            with monkeypatch.context() as mp:
                if legacy:
                    restore_cell_bookkeeping(mp)
                    mp.setattr(driver, "fv_step", fv_step)
                    assert Cells(np.array([3])).repeat(1.0).shape == (3,)
                else:
                    def refuse(self, x):
                        raise AssertionError("cell_index called on one cell")

                    mp.setattr(GridSpec, "cell_index", refuse)
                res = run(cfg)
                grid, p, sim = setup_simulation(cfg)
                results.append((res, step(sim, p, grid, cfg.dt)))
        (new, (s_new, d_new)), (old, (s_old, d_old)) = results
        assert np.array_equal(new.times, old.times) and list(new.series) == list(old.series)
        for key in new.series:
            assert np.array_equal(new.series[key], old.series[key]), key
        assert len(new.snapshots) == len(old.snapshots) == 6
        for a, b in zip(new.snapshots, old.snapshots):
            assert a.t == b.t and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("x", "v", "f1", "f2"))
        assert np.abs(new.final_state.ps1.w).max() > 0.0
        for a, b in ((new.final_state, old.final_state), (s_new, s_old)):
            assert all(np.array_equal(x, y) for x, y in zip(TestStep.arrays(a), TestStep.arrays(b)))
        assert d_new == d_old

    ENTROPY = dict(CFG, Np1=4000, Np2=4000, t_end=5e-3, output_every=1)

    def test_entropy_is_the_sum_of_both_species_relative_entropies(self):
        # H(f_k|M_k) of the recorded f clipped at 0, on the histogram bins,
        # against the Maxwellians of the macro moments
        res = run(RunConfig(**dict(self.ENTROPY, preset="v4-maxwellian")))
        grid, snap, macro, mr2 = res.grid, res.snapshots[-1], res.final_state.macro, res.params.mass_ratio2
        moments = moments_from_conserved(macro.U1, 1.0), moments_from_conserved(macro.U2, mr2)
        H1, H2 = (relative_entropy(np.clip(f[0], 0.0, None), m, mr, grid.v_bin_centers, grid.dv_bin)
                  for f, m, mr in zip((snap.f1, snap.f2), moments, (1.0, mr2)))
        assert H2 != 0.0
        assert res.series["entropy"][-1] == H1 + H2
        assert res.series["entropy"][0] > 0.4  # the v^4 species starts far from its Maxwellian

    def test_entropy_of_a_maxwellian_start_is_zero(self):
        res = run(RunConfig(**self.ENTROPY))
        assert abs(res.series["entropy"][0]) < 1e-12

    def test_momentum_energy_drift_tiny(self):
        # the exchange map keeps the conserved combinations to round-off
        res = run(RunConfig(**self.CFG))
        dP = np.max(np.abs(res.series["momentum"] - res.series["momentum"][0]))
        dE = np.max(np.abs(res.series["energy"] - res.series["energy"][0]))
        assert dP / res.times[-1] < 2e-7
        assert dE / res.times[-1] < 2e-7


class TestRun:
    def test_zero_step_run_emits_initial_only(self):
        cfg = RunConfig(mode="general", Nx=8, Nv=32, Np1=500, Np2=500, seed=1,
                        dt=1e-2, t_end=0.0, m1=1.0, m2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        res = run(cfg)
        assert res.times.shape == (1,)
        assert res.times[0] == 0.0
        assert len(res.snapshots) == 1

    @pytest.mark.parametrize("cfg", [
        RunConfig(mode="reference", Nx=16, Nv=64, dt=4e-3, t_end=0.2, output_every=25,
                  preset="cosine-perturbed", beta=0.1),
        RunConfig(mode="homogeneous", Nx=1, Nv=64, Np1=2000, Np2=2000, seed=1, dt=1e-3, t_end=0.03,
                  output_every=10, eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05, preset="v4-maxwellian"),
    ], ids=["reference", "homogeneous"])
    def test_recorded_times_are_step_multiples_ending_at_t_end(self, cfg):
        # a running sum of dt ends at 0.20000000000000015 and 0.03000000000000002
        res = run(cfg)
        steps = cfg.output_every * np.arange(len(res.times))
        assert np.array_equal(res.times, steps * cfg.dt)
        assert res.times[-1] == cfg.t_end and res.snapshots[-1].t == cfg.t_end

    @pytest.mark.parametrize("mode", ["general", "homogeneous", "reference"])
    def test_last_step_is_labelled_t_end(self, mode):
        # 9 * 1e-3 is 0.009000000000000001
        cfg = RunConfig(mode=mode, Nx=1 if mode == "homogeneous" else 4, Nv=64, Np1=500, Np2=500, seed=2,
                        dt=1e-3, t_end=0.009, output_every=4)
        res = run(cfg)
        assert res.times[-1] == cfg.t_end and res.snapshots[-1].t == cfg.t_end
        assert np.array_equal(res.times[:-1], np.array([0, 4, 8]) * cfg.dt)

    def test_seeded_run_bit_reproducible(self):
        cfg = RunConfig(mode="general", Nx=16, Nv=32, Np1=4000, Np2=4000, seed=11,
                        dt=1e-2, t_end=0.05, output_every=5, m1=1.0, m2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        a = run(cfg)
        b = run(cfg)
        for k in a.series:
            assert np.array_equal(a.series[k], b.series[k])
        assert np.array_equal(a.final_state.ps1.w, b.final_state.ps1.w)
        assert np.array_equal(a.final_state.ps2.x, b.final_state.ps2.x)

    def test_general_run_conservation_audit(self):
        cfg = RunConfig(mode="general", Nx=32, Nv=64, Np1=20000, Np2=20000, seed=7,
                        dt=1e-2, t_end=0.2, output_every=5, m1=1.0, m2=1.0,
                        eps1=1.0, epst1=1.0, eps2=1.0, epst2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        res = run(cfg)
        m1 = res.series["mass1"]
        m2 = res.series["mass2"]
        assert np.max(np.abs(m1 - m1[0])) < 1e-12
        assert np.max(np.abs(m2 - m2[0])) < 1e-12
        dP = np.max(np.abs(res.series["momentum"] - res.series["momentum"][0]))
        dE = np.max(np.abs(res.series["energy"] - res.series["energy"][0]))
        assert dP / cfg.t_end < 1e-3
        assert dE / cfg.t_end < 1e-3

    def test_reference_mode_runs(self):
        cfg = RunConfig(mode="reference", Nx=16, Nv=48, seed=0,
                        dt=2e-2, t_end=0.1, output_every=5, m1=1.0, m2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        res = run(cfg)
        assert res.mode == "reference"
        assert res.series["gap_u_inf"][0] == pytest.approx(0.5, abs=1e-6)
        m = res.series["mass1"]
        assert np.max(np.abs(m - m[0])) < 1e-12

    def test_stable_at_extreme_stiffness(self):
        # dt/eps = 1e4: the exponential weight update keeps the step stable
        # and crushes the remainder instantly; nothing blows up or clips
        cfg = RunConfig(mode="general", Nx=32, Nv=64, Np1=20000, Np2=20000, seed=22,
                        dt=1e-2, t_end=0.05, output_every=1, m1=1.0, m2=1.0,
                        eps1=1e-6, epst1=1e-6, eps2=1e-6, epst2=1e-6,
                        preset="cosine-perturbed", beta=1e-2)
        res = run(cfg)
        assert np.isfinite(res.series["gap_T_inf"]).all()
        assert np.abs(res.final_state.ps1.w).max() < 1e-9
        assert np.abs(res.final_state.ps2.w).max() < 1e-9
        assert res.series["gap_u_inf"][-1] < 1e-10
        assert np.max(np.abs(res.series["mass1"] - res.series["mass1"][0])) < 1e-12

    @pytest.mark.parametrize("mode", ["general", "reference", "homogeneous"])
    def test_no_solver_path_substeps_at_any_stiffness(self, mode, monkeypatch):
        # Knudsen 1e-8 puts rate*dt near 1e6; no mode may reach the
        # sub-step rule or the RK4 moment ODEs, wherever they are bound
        import sys

        def refuse(*args, **kwargs):
            raise AssertionError("a solver path sub-stepped")

        for name, mod in list(sys.modules.items()):
            if name == "kinmix" or name.startswith("kinmix."):
                for attr in ("relaxation_substeps", "moment_ode_step"):
                    if hasattr(mod, attr):
                        monkeypatch.setattr(mod, attr, refuse)
        homogeneous = mode == "homogeneous"
        cfg = RunConfig(mode=mode, Nx=1 if homogeneous else 16, Nv=64, Np1=2000, Np2=2000, seed=5,
                        dt=1e-2, t_end=3e-2, output_every=1, m1=1.0, m2=1.5,
                        eps1=1e-8, epst1=1e-8, eps2=1e-8, epst2=1e-8,
                        preset="v4-maxwellian" if homogeneous else "cosine-perturbed", beta=0.1)
        res = run(cfg)
        assert np.isfinite(res.series["gap_T_inf"]).all()
        assert res.series["gap_u_inf"][-1] < 1e-10

    def test_submodule_error_aborts_with_step_index(self):
        # dt violates the macro CFL, so the very first step must abort
        cfg = RunConfig(mode="general", Nx=64, Nv=32, Np1=500, Np2=500, seed=1,
                        dt=0.1, t_end=0.3, m1=1.0, m2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        with pytest.raises(RuntimeError, match=r"step 1/3"):
            run(cfg)

    def test_weight_mass_decays_in_fluid_regime_only(self):
        # kinetic regime: sum|w| barely moves; fluid intraspecies regime:
        # the remainder is damped hard and sum|w| collapses
        base = dict(mode="general", Nx=32, Nv=64, Np1=20000, Np2=20000, seed=9,
                    dt=1e-2, t_end=0.3, output_every=10, m1=1.0, m2=1.0,
                    preset="cosine-perturbed", beta=0.1)
        kin = run(RunConfig(eps1=1000.0, epst1=1000.0, eps2=1000.0, epst2=1000.0, **base))
        fluid = run(RunConfig(eps1=1e-2, epst1=1000.0, eps2=1e-2, epst2=1000.0, **base))
        rk = kin.series["sum_abs_w2"][-1] / kin.series["sum_abs_w2"][0]
        rf = fluid.series["sum_abs_w2"][-1] / fluid.series["sum_abs_w2"][0]
        assert rk > 0.9
        assert rf < 0.01

    def test_snapshot_shapes(self):
        cfg = RunConfig(mode="general", Nx=8, Nv=16, Np1=1000, Np2=1000, seed=2,
                        dt=1e-2, t_end=0.02, output_every=1, m1=1.0, m2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        res = run(cfg)
        snap = res.snapshots[-1]
        assert snap.f1.shape == (8, 16)
        assert snap.f2.shape == (8, 16)

    @pytest.mark.parametrize("mode", ["general", "reference"])
    def test_snapshot_nodes_are_own_writable_copies(self, mode):
        cfg = RunConfig(mode=mode, Nx=8, Nv=16, Np1=1000, Np2=1000, seed=2,
                        dt=1e-2, t_end=0.02, output_every=1, m1=1.0, m2=1.0,
                        preset="cosine-perturbed", beta=0.1)
        res = run(cfg)
        nodes = res.grid.v_nodes if mode == "reference" else res.grid.v_bin_centers
        a, b = res.snapshots[0], res.snapshots[-1]
        assert np.array_equal(a.x, res.grid.x_centers) and np.array_equal(a.v, nodes)
        for snap in (a, b):
            assert snap.x.flags.writeable and snap.v.flags.writeable
            assert not np.shares_memory(snap.x, res.grid.x_centers)
            assert not np.shares_memory(snap.v, nodes)
        assert not np.shares_memory(a.x, b.x) and not np.shares_memory(a.v, b.v)

    @pytest.mark.parametrize("mode, Nx, dt", [("homogeneous", 1, 1e-3), ("general", 1, 1e-3), ("general", 8, 1e-3),
                                              ("general", 8, 1e-6)])
    def test_records_bin_once_per_run_on_one_cell_and_per_record_on_many(self, monkeypatch, mode, Nx, dt):
        # on one cell the step hands v on as the same array, so each
        # species is binned at the first record only; on many cells at every
        # record, also when no particle leaves its cell (dt = 1e-6), so that
        # v stays the same array.  The series and snapshots are those of
        # binning every record afresh (`rebinned_f`)
        import kinmix.driver as driver

        cfg = RunConfig(mode=mode, Nx=Nx, Nv=32, Np1=2000, Np2=1500, seed=3, dt=dt, t_end=4 * dt, output_every=1,
                        eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05, preset="v4-maxwellian")
        binned = []
        bins = driver._particle_bins

        def counted(ps, grid):
            binned.append(ps)
            return bins(ps, grid)

        with monkeypatch.context() as mp:
            mp.setattr(driver, "_particle_bins", counted)
            new = run(cfg)
        with monkeypatch.context() as mp:
            mp.setattr(driver, "_reconstruct_f", rebinned_f)
            old = run(cfg)
        assert len(new.snapshots) == 5
        assert len(binned) == (2 if Nx == 1 else 2 * len(new.snapshots))
        if Nx > 1 and dt < 1e-3:
            # no particle leaves its cell: after the first step's sort, each v stays one array
            assert len({id(ps.v) for ps in binned[2:]}) == 2
        assert list(new.series) == list(old.series)
        for key in new.series:
            assert np.array_equal(new.series[key], old.series[key]), key
        for a, b in zip(new.snapshots, old.snapshots):
            assert np.array_equal(a.f1, b.f1) and np.array_equal(a.f2, b.f2)
        assert np.abs(new.snapshots[-1].f1 - new.snapshots[0].f1).max() > 0.0

    def test_reconstructed_f_is_maxwellian_plus_histogram_bit_for_bit(self):
        from kinmix.driver import _particle_bins, _reconstruct_f
        from kinmix.model import maxwellian

        # out-of-box velocities land in the edge bins
        cfg = RunConfig(mode="general", Nx=8, Nv=16, Lv=6.0, Np1=3000, Np2=2000, seed=2, dt=1e-2, t_end=0.0,
                        m1=1.0, m2=1.5, preset="cosine-perturbed", beta=0.1)
        grid, p, sim = setup_simulation(cfg)
        sim, _ = step(sim, p, grid, cfg.dt)
        sim.ps2.v[:3] = [-10.0, 10.0, 0.5 * grid.Lv]
        vb = grid.v_bin_centers
        ms = moments_from_conserved(sim.macro.U1, 1.0), moments_from_conserved(sim.macro.U2, p.mass_ratio2)
        bins = [_particle_bins(ps, grid) for ps in (sim.ps1, sim.ps2)]
        for f, m, mr, ps in zip(_reconstruct_f(sim, bins, ms, p, grid), ms, (1.0, p.mass_ratio2), (sim.ps1, sim.ps2)):
            M = maxwellian(SpeciesMoments(n=m.n[:, None], u=m.u[:, None], T=m.T[:, None]), mr, vb[None, :])
            vi = np.clip(((ps.v + 0.5 * grid.Lv) / grid.dv_bin).astype(np.int64), 0, grid.Nv - 1)
            ci = np.floor(ps.x / grid.dx).astype(np.int64) % grid.Nx
            H = np.bincount(ci * grid.Nv + vi, weights=ps.w, minlength=grid.Nx * grid.Nv).reshape(grid.Nx, grid.Nv)
            assert np.array_equal(f, M + H / (grid.dx * grid.dv_bin))
