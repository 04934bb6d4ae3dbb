"""One kinmix run in its own process, as `kinmix run <config> --out <dir>` does it.

    python3 perfbench/child.py --mode plain|trace|memory|cli \
        --config CFG --out DIR --result RESULT.json [--writes N]

`plain` times the run with one hook, a timer around the single
`driver.setup_simulation` call; with `--writes N` it then writes the same
files N-1 more times (to a directory it removes again) and reports the mean
time of the N writes as `output_s`. `trace` records spans around every traced
kinmix function (see `install_tracing`). `memory` records, under
tracemalloc, the peak memory allocated during each call of the functions in
`MEMORY_TARGETS`, and writes no output files. `cli` calls `kinmix.cli.main`
itself, so its files can be compared with the runner's.

The result file holds the timings, the run's correctness summary and, for
`trace` and `memory`, the per-layer numbers; a traced run adds its spans as
[name, start, end, parent index] rows.
"""
import time

T_START = time.perf_counter()  # before numpy and kinmix are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MEMORY_TARGETS = (
    ("kinmix.particles", "update_weights", "particles.update_weights"),
    ("kinmix.particles", "match", "particles.match"),
    ("kinmix.reference", "discrete_maxwellian_rows", "reference.discrete_maxwellian_rows"),
)

# spans that make up a time step; the rest of `driver.run` after setup is recording
STEP_SPANS = {"driver.step", "reference.dvm_step"}
PARTICLE_SPANS = ("particles.push", "particles.deposit", "particles.update_weights", "particles.match")


def install_tracing(tracer):
    """Patch every traced function; returns the `Patches` that restores them."""
    import numpy as np

    from kinmix.grids import GridSpec
    from tracer import Patches, timed

    def wrap_source(args, kwargs):
        # update_weights(ps, source_eval, lam, dt, grid, t): time the callable it receives
        source = timed(tracer, "particles.source_eval")
        if "source_eval" in kwargs:
            kwargs = dict(kwargs, source_eval=source(kwargs["source_eval"]))
        else:
            args = (args[0], source(args[1])) + tuple(args[2:])
        return args, kwargs

    def count_match(args, kwargs, out):
        tracer.add("particles.match.skipped_cells", int(out[1]))
        idx = kwargs.get("idx")
        if idx is not None:
            grid = args[1]
            tracer.add("particles.match.populated_cells", int(np.count_nonzero(np.bincount(idx, minlength=grid.Nx))))

    def count_substeps(args, kwargs, out):
        tracer.add("macrofv.relaxation_substeps.total", int(out))

    def snapshot_bytes(args, kwargs, out):
        tracer.add("config.write_snapshot.bytes", sum(os.path.getsize(p) for p in out))

    patches = Patches()
    plain = (
        ("kinmix.driver", "run", "driver.run"),
        ("kinmix.driver", "setup_simulation", "driver.setup_simulation"),
        ("kinmix.driver", "step", "driver.step"),
        ("kinmix.particles", "init_particles", "particles.init_particles"),
        ("kinmix.particles", "push", "particles.push"),
        ("kinmix.particles", "deposit", "particles.deposit"),
        ("kinmix.macrofv", "fv_step", "macrofv.fv_step"),
        ("kinmix.model", "exchange_quantities", "model.exchange_quantities"),
        ("kinmix.projection", "eval_projection", "projection.eval_projection"),
        ("kinmix.homogeneous", "moment_ode_step", "homogeneous.moment_ode_step"),
        ("kinmix.reference", "dvm_step", "reference.dvm_step"),
        ("kinmix.reference", "discrete_maxwellian_rows", "reference.discrete_maxwellian_rows"),
        ("kinmix.reference", "cellwise_moments", "reference.cellwise_moments"),
        ("kinmix.config", "parse_config", "config.parse_config"),
        ("kinmix.config", "write_timeseries", "config.write_timeseries"),
    )
    try:
        for home, attr, name in plain:
            patches.function(home, attr, timed(tracer, name))
        patches.function("kinmix.particles", "update_weights", timed(tracer, "particles.update_weights", before=wrap_source))
        patches.function("kinmix.particles", "match", timed(tracer, "particles.match", after=count_match))
        patches.function("kinmix.macrofv", "relaxation_substeps", timed(tracer, "macrofv.relaxation_substeps", after=count_substeps))
        patches.function("kinmix.config", "write_snapshot", timed(tracer, "config.write_snapshot", after=snapshot_bytes))
        patches.method(GridSpec, "cell_index", timed(tracer, "grids.cell_index"))
    except BaseException:
        patches.restore()
        raise
    return patches


def install_memory(peaks: dict):
    """Record the peak traced allocation above the pre-call level, per call."""
    import functools
    import tracemalloc

    from tracer import Patches

    def measured(name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = fn(*args, **kwargs)
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - base)
                return out

            return wrapper

        return make

    patches = Patches()
    for home, attr, name in MEMORY_TARGETS:
        patches.function(home, attr, measured(name))
    return patches


def residual_max(particle_sets, grid) -> float:
    """Largest per-cell |sum w|, |sum w v|, |sum w v^2| over the given particle sets."""
    import numpy as np

    from kinmix.particles import cell_sums

    return max(float(np.max(np.abs(cell_sums(ps, grid)))) for ps in particle_sets)


def live_frac_99(particle_sets) -> float:
    """Share of the particles, pooled over species, that holds 99% of the summed |w|."""
    import numpy as np

    a = np.sort(np.concatenate([np.abs(ps.w) for ps in particle_sets]))[::-1]
    total = float(a.sum())
    if total == 0.0:
        return 0.0
    need = int(np.searchsorted(np.cumsum(a), 0.99 * total)) + 1
    return min(need, a.size) / a.size


def run_summary(result) -> dict:
    """What the gates need from a RunResult, as plain JSON values."""
    import numpy as np

    s = {
        "mode": result.mode,
        "times": [float(t) for t in result.times],
        "series": {k: [float(x) for x in v] for k, v in result.series.items()},
        "skipped_cells_total": int(result.skipped_cells_total),
        "finite": bool(
            all(np.all(np.isfinite(v)) for v in result.series.values())
            and all(np.all(np.isfinite(sn.f1)) and np.all(np.isfinite(sn.f2)) for sn in result.snapshots)
        ),
    }
    if result.mode == "reference":
        s["min_f"] = float(min(min(sn.f1.min(), sn.f2.min()) for sn in result.snapshots))
    else:
        sets = (result.final_state.ps1, result.final_state.ps2)
        s["residual_max"] = residual_max(sets, result.grid)
        s["live_frac_99"] = live_frac_99(sets)
    return s


def layer_metrics(tracer, doc: dict) -> dict:
    """Per-layer numbers of one traced run of config `doc` (a metric with no
    calls reads 0), the durations of its `driver.step` calls and its traced
    solve time."""
    from workloads import dof, steps
    from tracer import covered_time, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    total, own, calls = {}, {}, {}
    for s, st in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
    run = next(i for i, s in enumerate(spans) if s.name == "driver.run")
    c = tracer.counts
    populated = c.get("particles.match.populated_cells", 0)
    particle_s = sum(total.get(n, 0.0) for n in PARTICLE_SPANS)
    snap_s = total.get("config.write_snapshot", 0.0)
    setup_s = total.get("driver.setup_simulation", 0.0)
    run_s = spans[run].end - spans[run].start
    per_step = 1e9 / (dof(doc) * steps(doc))  # seconds -> ns per degree of freedom and step
    reference = doc["mode"] == "reference"
    m = {
        "driver.step.self_s": own.get("driver.step", 0.0),
        "driver.record_s": run_s - covered_time(spans, run, STEP_SPANS | {"driver.setup_simulation"}),
        "driver.setup_simulation.s": setup_s,
        "particles.push.s": total.get("particles.push", 0.0),
        "particles.deposit.s": total.get("particles.deposit", 0.0),
        "particles.update_weights.self_s": own.get("particles.update_weights", 0.0),
        "particles.source_eval.s": total.get("particles.source_eval", 0.0),
        "particles.match.s": total.get("particles.match", 0.0),
        "particles.ns_per_particle_step": 0.0 if reference else particle_s * per_step,
        "particles.init_particles.s": total.get("particles.init_particles", 0.0),
        "particles.match.skipped_cells": c.get("particles.match.skipped_cells", 0),
        "particles.match.solved_frac": (populated - c.get("particles.match.skipped_cells", 0)) / populated if populated else 0.0,
        "grids.cell_index.calls": calls.get("grids.cell_index", 0),
        "grids.cell_index.s": total.get("grids.cell_index", 0.0),
        "macrofv.fv_step.s": total.get("macrofv.fv_step", 0.0),
        "macrofv.relaxation_substeps.total": c.get("macrofv.relaxation_substeps.total", 0),
        "model.exchange_quantities.calls": calls.get("model.exchange_quantities", 0),
        "model.exchange_quantities.s": total.get("model.exchange_quantities", 0.0),
        "projection.eval_projection.calls": calls.get("projection.eval_projection", 0),
        "homogeneous.moment_ode_step.s": total.get("homogeneous.moment_ode_step", 0.0),
        "reference.dvm_step.self_s": own.get("reference.dvm_step", 0.0),
        "reference.discrete_maxwellian_rows.s": total.get("reference.discrete_maxwellian_rows", 0.0),
        "reference.discrete_maxwellian_rows.calls": calls.get("reference.discrete_maxwellian_rows", 0),
        "reference.cellwise_moments.s": total.get("reference.cellwise_moments", 0.0),
        "reference.ns_per_node_step": total.get("reference.dvm_step", 0.0) * per_step if reference else 0.0,
        "config.parse_config.s": total.get("config.parse_config", 0.0),
        "config.write_snapshot.s": snap_s,
        "config.write_snapshot.calls": calls.get("config.write_snapshot", 0),
        "config.write_snapshot.mb_per_s": c.get("config.write_snapshot.bytes", 0) / 1e6 / snap_s if snap_s else 0.0,
        "config.write_timeseries.s": total.get("config.write_timeseries", 0.0),
    }
    steps_ms = [1e3 * (s.end - s.start) for s in spans if s.name == "driver.step"]
    return {"metrics": m, "step_ms": steps_ms, "solve_s": run_s - setup_s}


def write_outputs(outdir: str, result) -> float:
    """Write a run's files as `kinmix run` does; returns the seconds it took."""
    import kinmix.config

    start = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    kinmix.config.write_timeseries(os.path.join(outdir, "timeseries.csv"), result)
    for i, snap in enumerate(result.snapshots):
        kinmix.config.write_snapshot(outdir, snap, i)
    return time.perf_counter() - start


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("plain", "trace", "memory", "cli"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--writes", type=int, default=1, help="plain mode: times to write the outputs")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    import kinmix.config
    import kinmix.driver

    from tracer import Patches, Tracer, timed

    rec = {"mode": args.mode}
    if args.mode == "cli":
        import kinmix.cli

        rec["rc"] = kinmix.cli.main(["run", args.config, "--out", args.out])
        _write_json(args.result, rec)
        return 0

    tracer = Tracer()
    peaks: dict = {}
    if args.mode == "trace":
        patches = install_tracing(tracer)
    elif args.mode == "memory":
        import tracemalloc

        tracemalloc.start()
        patches = install_memory(peaks)
    else:  # the one hook of an untraced run
        patches = Patches()
        patches.function("kinmix.driver", "setup_simulation", timed(tracer, "driver.setup_simulation"))

    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = kinmix.config.parse_config(text)
        t_parse = time.perf_counter()
        result = kinmix.driver.run(cfg)
        t_run = time.perf_counter()
        if args.mode != "memory":
            writes = [write_outputs(args.out, result)]
            rec["wall_end"] = time.monotonic()
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.mode == "plain":
            again = args.out + ".again"
            for _ in range(1, args.writes):
                writes.append(write_outputs(again, result))
                shutil.rmtree(again)
        if args.mode != "memory":
            rec["output_s"] = sum(writes) / len(writes)
    finally:
        patches.restore()
        if args.mode == "memory":
            tracemalloc.stop()

    rec["summary"] = run_summary(result)
    if args.mode == "plain":
        setup_call = sum(s.end - s.start for s in tracer.spans)
        rec["setup_s"] = (t_parse - T_START) + setup_call
        rec["solve_s"] = (t_run - t_parse) - setup_call
    if args.mode != "memory":
        rec["output_bytes"] = _dir_bytes(args.out)
    if args.mode == "trace":
        rec["layers"] = layer_metrics(tracer, json.loads(text))
        rec["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    if args.mode == "memory":
        rec["peak_mb"] = {name: peaks.get(name, 0) / 1e6 for _, _, name in MEMORY_TARGETS}
    _write_json(args.result, rec)
    return 0


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
