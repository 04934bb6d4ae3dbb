"""Tests of the benchmark harness itself: span arithmetic, gates, patching.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys

import pytest

import child
import gates
from tracer import Span, Tracer, covered_time, self_times

TINY = {
    "mode": "general",
    "domain": {"Nx": 8, "Nv": 16},
    "particles": {"Np1": 2000, "Np2": 2000, "seed": 5},
    "time": {"dt": 1e-2, "t_end": 2e-2, "output_every": 1},
    "mixture": {"m1": 1.0, "m2": 1.0},
    "knudsen": {"eps1": 1.0, "epst1": 1.0, "eps2": 1.0, "epst2": 1.0},
    "init": {"preset": "cosine-perturbed", "beta": 0.1},
}


def _kinmix_bindings():
    """Every function-valued attribute of the loaded kinmix modules, plus GridSpec.cell_index."""
    from kinmix.grids import GridSpec

    out = {("GridSpec", "cell_index"): GridSpec.__dict__["cell_index"]}
    for name, mod in list(sys.modules.items()):
        if name == "kinmix" or name.startswith("kinmix."):
            for key, val in vars(mod).items():
                if callable(val) and not isinstance(val, type):
                    out[(name, key)] = val
    return out


def test_self_time_subtracts_children_on_synthetic_nested_spans():
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # recording time: the part of run covered by neither step nor setup spans
    spans += [Span("setup", 0.0, 0.5, 0)]
    assert 10.0 - covered_time(spans, 0, {"a", "b", "setup"}) == pytest.approx(2.5)


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("outer")
    for _ in range(2):
        tr.close(tr.open("inner"))
    tr.close(outer)
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert self_times(tr.spans) == pytest.approx([5.0 - 2.0, 1.0, 1.0])


def _tiny_run():
    from kinmix.config import parse_config
    from kinmix.driver import run

    return run(parse_config(json.dumps(TINY)))


def test_perturbed_particle_weight_fails_matching_residual_gate():
    result = _tiny_run()
    assert gates.check(child.run_summary(result)) == []
    result.final_state.ps2.w[0] += 1e-6
    fails = gates.check(child.run_summary(result))
    assert len(fails) == 1 and fails[0].startswith("matching residual")


def test_traced_run_restores_every_patched_name(tmp_path):
    import kinmix.driver  # noqa: F401  (load every module before taking the inventory)

    before = _kinmix_bindings()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY))
    result = tmp_path / "result.json"
    assert child.main(["--mode", "trace", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--result", str(result)]) == 0
    after = _kinmix_bindings()
    changed = sorted(k for k in before if after.get(k) is not before[k])
    assert changed == []
    layers = json.loads(result.read_text())["layers"]["metrics"]
    assert layers["particles.match.solved_frac"] == 1.0
    assert layers["grids.cell_index.calls"] > 0
    assert layers["config.write_snapshot.calls"] == 3


def test_tracing_patches_callers_and_restores_after_an_error():
    import kinmix.driver
    import kinmix.macrofv
    import kinmix.reference
    from kinmix.model import exchange_quantities

    before = _kinmix_bindings()
    tr = Tracer()
    patches = child.install_tracing(tr)
    try:
        for mod in (kinmix.driver, kinmix.macrofv, kinmix.reference):
            assert mod.exchange_quantities is not exchange_quantities
        with pytest.raises(AttributeError):
            kinmix.driver.step(None, None, None, 0.0)
    finally:
        patches.restore()
    assert [s.name for s in tr.spans] == ["driver.step"]
    assert all(_kinmix_bindings()[k] is v for k, v in before.items())
