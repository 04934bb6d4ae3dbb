import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from kinmix.cli import main as cli_main
from kinmix.config import (
    ConfigError,
    PRESETS,
    RunConfig,
    build_initial_condition,
    config_to_json,
    mixture_params,
    parse_config,
    write_snapshot,
    write_timeseries,
)
from kinmix.driver import Snapshot, run
from kinmix.grids import GridSpec
from kinmix.model import ParameterError, SpeciesMoments, maxwellian

from oracles import nuT, snapshot_csv_text, vgrid

BASE = {
    "mode": "general",
    "knudsen": {"eps1": 1.0, "epst1": 1.0, "eps2": 1.0, "epst2": 1.0},
    "time": {"dt": 0.01, "t_end": 0.1},
}


def cfg_text(**overrides):
    doc = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in doc:
            doc[key].update(val)
        else:
            doc[key] = val
    return json.dumps(doc)


class TestParseConfig:
    def test_defaults_accepted(self):
        cfg = parse_config(cfg_text())
        assert cfg.Lx == pytest.approx(4 * np.pi)
        assert cfg.Lv == 20.0
        assert cfg.alpha == 0.5 and cfg.delta == 0.5 and cfg.gamma == 0.1

    def test_missing_knudsen_block(self):
        doc = {"mode": "general", "time": {"dt": 0.01, "t_end": 0.1}}
        with pytest.raises(ConfigError, match="knudsen"):
            parse_config(json.dumps(doc))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            parse_config(cfg_text(extra=1))

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="domain.cells"):
            parse_config(cfg_text(domain={"cells": 10}))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_physics_validation_gamma(self):
        text = cfg_text(mixture={"m1": 1.0, "m2": 1.0, "gamma": 0.6})
        with pytest.raises(ParameterError, match="gamma"):
            parse_config(text)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(cfg_text(mode="bogus"))

    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="init.preset"):
            parse_config(cfg_text(init={"preset": "nope"}))

    def test_homogeneous_needs_single_cell(self):
        with pytest.raises(ConfigError, match="Nx"):
            parse_config(cfg_text(mode="homogeneous", domain={"Nx": 4}))

    def test_homogeneous_rejects_cosine(self):
        with pytest.raises(ConfigError, match="cosine"):
            parse_config(cfg_text(mode="homogeneous", domain={"Nx": 1}, init={"preset": "cosine-perturbed"}))

    def test_nonpositive_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config(cfg_text(time={"dt": 0.0, "t_end": 0.1}))

    @pytest.mark.parametrize("block,key", [
        ("domain", "Lx"), ("time", "dt"), ("mixture", "m2"), ("mixture", "nu12"), ("init", "beta"), ("init", "T1"),
    ])
    def test_non_finite_field_rejected(self, block, key):
        # JSON `Infinity` parses to float inf; NaN and -inf take the same path
        with pytest.raises(ConfigError, match=f"'{key}' must be a finite number"):
            parse_config(cfg_text(**{block: {key: float("inf")}}))
        with pytest.raises(ConfigError, match=f"'{key}' must be a finite number"):
            parse_config(cfg_text(**{block: {key: float("nan")}}))

    @pytest.mark.parametrize("key", ["T1", "T2"])
    @pytest.mark.parametrize("val", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, key, val):
        # used to pass parsing and die at step 1 with a PositivityError
        with pytest.raises(ConfigError, match=f"'{key}' must be a number > 0"):
            parse_config(cfg_text(init={"preset": "maxwellian-maxwellian", key: val}))

    @pytest.mark.parametrize("beta", [1.0, 1.5, -1.0])
    def test_cosine_beta_outside_unit_interval_rejected(self, beta):
        # 1 + beta cos(x/2) would reach zero or go negative
        with pytest.raises(ConfigError, match="'beta' must have"):
            parse_config(cfg_text(init={"preset": "cosine-perturbed", "beta": beta}))
        # the other presets do not use beta
        assert parse_config(cfg_text(init={"preset": "v4-maxwellian", "beta": beta})).beta == beta

    def test_negative_seed_rejected(self):
        # used to pass parsing and fail in numpy's SeedSequence
        with pytest.raises(ConfigError, match="'seed' must be an integer >= 0"):
            parse_config(cfg_text(particles={"seed": -1}))
        assert parse_config(cfg_text(particles={"seed": 0})).seed == 0

    def test_single_velocity_node_rejected(self):
        # the velocity grid needs two nodes; GridSpec used to reject it at run time
        with pytest.raises(ConfigError, match="'Nv' must be an integer >= 2"):
            parse_config(cfg_text(domain={"Nv": 1}))

    def test_unresolved_starting_maxwellian_rejected(self):
        # m2/m1 = 15 and the default T2 = 0.1: thermal speed 0.082 against a
        # node spacing of 0.317 used to pass and die at step 1 of a reference
        # run with "Singular matrix"
        doc = dict(mode="reference", mixture={"m1": 1.0, "m2": 15.0}, time={"dt": 1e-3, "t_end": 1e-3})
        with pytest.raises(ConfigError, match=r"thermal speed .* Lv/\(Nv-1\) = 0.317: raise Nv, T1 or T2"):
            parse_config(cfg_text(domain={"Nx": 4, "Nv": 64}, **doc))
        res = run(parse_config(cfg_text(domain={"Nx": 4, "Nv": 512}, **doc)))
        assert np.all(np.isfinite(res.series["gap_T_inf"]))

    # the reference_oracle benchmark workload: 128 cells over 4 pi, 256 nodes
    REFERENCE = dict(mode="reference", domain={"Lx": 4 * np.pi, "Lv": 20.0, "Nx": 128, "Nv": 256},
                     init={"preset": "cosine-perturbed", "beta": 0.1})

    def test_reference_dt_above_upwind_cfl_rejected(self):
        # dx / max|v| = 0.0982 / 10; dt = 2e-2 used to pass parsing and abort
        # the run at step 1 with a CFLError
        with pytest.raises(ConfigError, match=r"'time\.dt' = 0\.02 breaks the upwind CFL bound .* = 0\.0098"):
            parse_config(cfg_text(time={"dt": 2e-2, "t_end": 0.2}, **self.REFERENCE))
        assert parse_config(cfg_text(time={"dt": 4e-3, "t_end": 0.2}, **self.REFERENCE)).dt == 4e-3
        # the bound binds reference mode only, and only on more than one cell
        assert parse_config(cfg_text(time={"dt": 2e-2, "t_end": 0.2}, **{**self.REFERENCE, "mode": "general"}))
        one_cell = dict(self.REFERENCE, domain={"Nx": 1, "Nv": 256}, init={"preset": "v4-maxwellian"})
        assert parse_config(cfg_text(time={"dt": 2e-2, "t_end": 0.2}, **one_cell)).Nx == 1

    def test_reference_upwind_cfl_boundary_agrees_with_the_run(self):
        # the parser and dvm_step read one bound: dt at it parses and runs,
        # the next float up is rejected
        bound = GridSpec(Lx=4 * np.pi, Nx=128, Lv=20.0, Nv=256).upwind_dt_max()
        res = run(parse_config(cfg_text(time={"dt": bound, "t_end": bound}, **self.REFERENCE)))
        assert res.times[-1] == bound
        above = float(np.nextafter(bound, 1.0))
        with pytest.raises(ConfigError, match=r"'time\.dt'"):
            parse_config(cfg_text(time={"dt": above, "t_end": above}, **self.REFERENCE))

    def test_t_end_below_one_step_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(cfg_text(time={"dt": 0.01, "t_end": 0.004}))

    def test_t_end_not_a_multiple_of_dt_rejected(self):
        # round(0.05 / 0.03) = 2 steps would silently end the run at t = 0.06
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(cfg_text(time={"dt": 0.03, "t_end": 0.05}))

    def test_t_end_multiple_up_to_rounding_accepted(self):
        # 0.03 / 1e-3 = 29.999999999999996 in floating point
        assert parse_config(cfg_text(time={"dt": 1e-3, "t_end": 0.03})).t_end == 0.03

    def test_roundtrip_identity(self):
        cfg = parse_config(cfg_text(
            domain={"Lx": 6.0, "Lv": 18.0, "Nx": 64, "Nv": 128},
            particles={"Np1": 1234, "Np2": 4321, "seed": 99},
            mixture={"m2": 1.5, "gamma": 0.05},
            init={"preset": "v4-maxwellian", "beta": 0.2, "T2": 5.0},
        ))
        assert parse_config(config_to_json(cfg)) == cfg

    def test_mixture_params_carries_knudsen(self):
        cfg = parse_config(cfg_text(knudsen={"eps1": 0.05, "epst1": 0.05, "eps2": 0.05, "epst2": 0.05}))
        p = mixture_params(cfg)
        assert p.eps == pytest.approx(1.0)


class TestPresets:
    def test_listing_complete(self):
        assert set(PRESETS) == {"maxwellian-maxwellian", "v4-maxwellian", "cosine-perturbed"}

    def test_maxwellian_preset_moments(self):
        cfg = RunConfig(preset="maxwellian-maxwellian")
        ic = build_initial_condition(cfg, mixture_params(cfg))
        x = np.array([0.3])
        m1, m2 = ic.moments1(x), ic.moments2(x)
        assert (m1.n[0], m1.u[0], m1.T[0]) == (1.0, 0.5, 1.0)
        assert (m2.n[0], m2.u[0], m2.T[0]) == (1.2, 0.1, 0.1)

    def test_temperature_overrides(self):
        cfg = RunConfig(preset="maxwellian-maxwellian", T1=0.08, T2=5.0)
        ic = build_initial_condition(cfg, mixture_params(cfg))
        x = np.array([0.0])
        assert ic.moments1(x).T[0] == 0.08
        assert ic.moments2(x).T[0] == 5.0

    def test_v4_preset_moments_by_quadrature(self):
        cfg = RunConfig(preset="v4-maxwellian")
        ic = build_initial_condition(cfg, mixture_params(cfg))
        v, w = vgrid()
        f1 = ic.f1(np.array([[1.0]]), v[None, :])[0]
        n, u, T = nuT(f1, v, w, 1.0)
        assert n == pytest.approx(1.0, abs=1e-10)
        assert u == pytest.approx(0.0, abs=1e-12)
        assert T == pytest.approx(5.0, abs=1e-9)

    def test_cosine_preset_moments_by_quadrature(self):
        # n2 = 1 + beta cos(x/2), u2 = 0, and the second raw moment
        # n2*T2 = 5(1 + beta cos(x/2)); the temperature itself is uniformly 5
        beta = 0.1
        cfg = RunConfig(preset="cosine-perturbed", beta=beta, m2=1.0)
        ic = build_initial_condition(cfg, mixture_params(cfg))
        v, w = vgrid()
        for xval in (0.0, 1.0, np.pi, 5.0):
            f2 = ic.f2(np.array([[xval]]), v[None, :])[0]
            n, u, T = nuT(f2, v, w, 1.0)
            amp = 1 + beta * np.cos(xval / 2)
            assert n == pytest.approx(amp, abs=1e-8)
            assert u == pytest.approx(0.0, abs=1e-12)
            assert n * T == pytest.approx(5.0 * amp, abs=1e-8)
            assert T == pytest.approx(5.0, abs=1e-8)
        m2 = ic.moments2(np.array([np.pi / 2]))
        assert m2.n[0] == pytest.approx(1 + beta * np.cos(np.pi / 4))

    def test_remainders_have_zero_moments(self):
        cfg = RunConfig(preset="v4-maxwellian")
        ic = build_initial_condition(cfg, mixture_params(cfg))
        v, w = vgrid()
        g1 = ic.g1(np.array([[0.5]]), v[None, :])[0]
        for k in range(3):
            assert abs(np.sum(w * v**k * g1)) < 1e-9

    def test_t1_override_rejected_outside_maxwellian_preset(self):
        with pytest.raises(ConfigError, match="T1"):
            parse_config(cfg_text(init={"preset": "v4-maxwellian", "T1": 2.0}))


class TestOutputs:
    def test_header_only_file(self, tmp_path):
        class Empty:
            times = np.array([])
            series = {"gap_u_inf": np.array([])}

        path = tmp_path / "ts.csv"
        write_timeseries(str(path), Empty())
        assert path.read_text() == "t,gap_u_inf\n"

    def test_timeseries_17_digits(self, tmp_path):
        class One:
            times = np.array([1.0 / 3.0])
            series = {"gap_u_inf": np.array([2.0 / 3.0])}

        path = tmp_path / "ts.csv"
        write_timeseries(str(path), One())
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[0] == f"{1.0/3.0:.17g}"

    def test_homogeneous_run_emits_measured_and_analytic_columns(self, tmp_path):
        cfg = RunConfig(mode="homogeneous", Nx=1, Nv=64, Np1=500, Np2=500, seed=1,
                        dt=1e-3, t_end=0.01, output_every=5,
                        eps1=0.05, epst1=0.05, eps2=0.05, epst2=0.05)
        res = run(cfg)
        path = tmp_path / "ts.csv"
        write_timeseries(str(path), res)
        header = path.read_text().splitlines()[0].split(",")
        assert "gap_u_sq" in header and "analytic_gap_u_sq" in header and "analytic_gap_T" in header

    def test_snapshot_of_equilibrium_run_matches_maxwellian(self, tmp_path):
        # zero initial remainder: the t=0 snapshot is the Maxwellian exactly
        cfg = RunConfig(mode="general", Nx=8, Nv=32, Np1=2000, Np2=2000, seed=4,
                        dt=1e-2, t_end=0.0, preset="maxwellian-maxwellian")
        res = run(cfg)
        snap = res.snapshots[0]
        M1 = maxwellian(SpeciesMoments(n=1.0, u=0.5, T=1.0), 1.0, snap.v)
        assert np.max(np.abs(snap.f1 - M1[None, :])) < 1e-12
        files = write_snapshot(str(tmp_path), snap, 0)
        assert len(files) == 2
        body = open(files[0]).read().splitlines()
        assert body[0] == "x,v,f"
        assert len(body) == 1 + 8 * 32


class TestSnapshotWriter:
    def assert_matches_reference(self, outdir, snap, index=0):
        files = write_snapshot(str(outdir), snap, index)
        assert [os.path.basename(p) for p in files] == [
            f"snapshot_s1_{index:04d}.csv", f"snapshot_s2_{index:04d}.csv"]
        for path, f in zip(files, (snap.f1, snap.f2)):
            with open(path, "rb") as fh:
                assert fh.read() == snapshot_csv_text(snap.x, snap.v, f).encode()

    def synthetic(self, Nx, Nv):
        rng = np.random.default_rng(3)
        f1 = rng.standard_normal((Nx, Nv)) * 10.0 ** rng.integers(-300, 300, (Nx, Nv))
        specials = [-0.0, 5e-324, 1e300, -2.5, np.nan, np.inf, -np.inf]
        f1.flat[: len(specials)] = specials[: f1.size]
        return Snapshot(t=0.0, x=np.linspace(-1.0, np.pi, Nx), v=np.linspace(-7.3, 7.3, Nv),
                        f1=f1, f2=rng.random((Nx, Nv)) / 3.0)

    def test_general_run_snapshots_match_reference(self, tmp_path):
        cfg = RunConfig(mode="general", Nx=8, Nv=16, Np1=500, Np2=500, seed=5, dt=1e-2, t_end=0.02,
                        m1=1.0, m2=1.0, preset="cosine-perturbed", beta=0.1)
        res = run(cfg)
        assert len(res.snapshots) == 3
        for i, snap in enumerate(res.snapshots):
            self.assert_matches_reference(tmp_path, snap, i)

    def test_reference_run_snapshot_matches_reference(self, tmp_path):
        cfg = RunConfig(mode="reference", Nx=8, Nv=16, dt=1e-2, t_end=0.02, m1=1.0, m2=1.5,
                        preset="cosine-perturbed", beta=0.1)
        snap = run(cfg).snapshots[-1]
        assert np.array_equal(snap.v, GridSpec(Lx=cfg.Lx, Nx=8, Lv=cfg.Lv, Nv=16).v_nodes)
        self.assert_matches_reference(tmp_path, snap, 7)

    @pytest.mark.parametrize("Nx,Nv", [(3, 5), (1, 9), (4, 2)])
    def test_synthetic_grid_matches_reference(self, tmp_path, Nx, Nv):
        self.assert_matches_reference(tmp_path, self.synthetic(Nx, Nv))

    def test_shape_mismatch_rejected(self, tmp_path):
        snap = self.synthetic(3, 5)
        snap.f2 = snap.f2[:, :4]
        with pytest.raises(ValueError, match="shape"):
            write_snapshot(str(tmp_path), snap, 0)

    def test_failed_rename_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "snapshot_s1_0000.csv"
        target.write_text("previous\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_snapshot(str(tmp_path), self.synthetic(3, 5), 0)
        with pytest.raises(OSError, match="rename refused"):
            write_timeseries(str(tmp_path / "timeseries.csv"),
                             SimpleNamespace(times=np.array([0.0]), series={"gap_u_inf": np.array([1.0])}))
        assert target.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot_s1_0000.csv"]


class TestCLI:
    def test_presets_command(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_run_end_to_end(self, tmp_path, capsys):
        doc = {
            "mode": "general",
            "domain": {"Nx": 8, "Nv": 16},
            "particles": {"Np1": 500, "Np2": 500, "seed": 5},
            "time": {"dt": 0.01, "t_end": 0.02, "output_every": 1},
            "mixture": {"m1": 1.0, "m2": 1.0},
            "knudsen": {"eps1": 1.0, "epst1": 1.0, "eps2": 1.0, "epst2": 1.0},
            "init": {"preset": "cosine-perturbed", "beta": 0.1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "timeseries.csv").exists()
        assert (out_dir / "snapshot_s1_0000.csv").exists()
        assert (out_dir / "snapshot_s2_0002.csv").exists()
        assert sorted(os.listdir(out_dir)) == sorted(
            ["timeseries.csv"] + [f"snapshot_s{k}_{i:04d}.csv" for k in (1, 2) for i in range(3)])
        out = capsys.readouterr().out
        assert re.fullmatch(rf"wrote 3 outputs to {re.escape(str(out_dir))} in \d+\.\d\d s wall; skipped cells: 0\n", out)

    def test_run_seed_override_changes_output(self, tmp_path):
        doc = {
            "mode": "general",
            "domain": {"Nx": 8, "Nv": 16},
            "particles": {"Np1": 800, "Np2": 800, "seed": 5},
            "time": {"dt": 0.01, "t_end": 0.02, "output_every": 1},
            "mixture": {"m1": 1.0, "m2": 1.0},
            "knudsen": {"eps1": 1.0, "epst1": 1.0, "eps2": 1.0, "epst2": 1.0},
            "init": {"preset": "cosine-perturbed", "beta": 0.1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli_main(["run", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main(["run", str(cfg_path), "--out", str(b), "--seed", "77"]) == 0
        assert (a / "timeseries.csv").read_text() != (b / "timeseries.csv").read_text()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        # used to reach numpy's SeedSequence and fail there without naming the field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text())
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert "error: invalid config: field 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{}")
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "knudsen" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 1
