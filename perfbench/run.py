"""kinmix benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kinmix checkout; kinmix is imported from `src/`.
Each run is a child process (`child.py`), one at a time, with
KINMIX_THREADS=1 and the BLAS pools pinned to one thread.

--trace 0: untraced runs, then one `kinmix.cli.main` run whose files must
equal the runner's byte for byte, all within S seconds (but at least MIN_RUNS
runs). Prints the end-to-end metrics (medians over the runs).

--trace 1: alternating untraced and traced runs, then one tracemalloc pass,
all within S seconds (but at least MIN_RUNS pairs). Prints the per-layer
metrics (medians over the traced runs), the tracing overhead and the peak
allocation per call, and writes the spans of the first traced run to
.perfbench_work/.

Every run is checked against the gates in `gates.py`, and every run that
writes output must produce a byte-identical `timeseries.csv`. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gates  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3  # untraced runs (or traced pairs) per invocation, whatever S is
BUDGET_S = 170.0  # an invocation launches no run after this and kills one that outlasts it
THREAD_VARS = ("KINMIX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(section: str) -> dict:
    """name -> unit for one metric list of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Bench:
    """One invocation: a work directory, the child runs made so far and their verdicts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.doc = workloads.config_doc(workload, seed)
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w") as fh:
            fh.write(workloads.config_text(workload, seed))
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.attempted = 0
        self.failures: list = []
        self.first_out = None  # output dir of the first run that wrote files
        self.deadline = time.monotonic() + BUDGET_S

    def more(self, start: float, seconds: float, took: list) -> bool:
        """Whether to launch another run (or pair), given how long each one so far
        `took`: until MIN_RUNS are done, then while a typical one and the closing
        run after the loop (CLI or memory pass, taken as long as one more) still
        end within `seconds` of `start`."""
        now = time.monotonic()
        if now >= self.deadline:
            return False
        if len(took) < MIN_RUNS:
            return True
        return now + 2 * statistics.median(took) - start <= seconds

    def child(self, mode: str, writes: int = 1):
        """Run one child (writing its outputs `writes` times, see `workloads.WRITES`);
        returns its record, or None if it raised or failed a gate."""
        self.attempted += 1
        n = self.attempted
        out = os.path.join(self.dir, f"out{n}")
        result = os.path.join(self.dir, f"result{n}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
               "--config", self.config, "--out", out, "--result", result, "--writes", str(writes)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} run {n}: killed, out of the {BUDGET_S:g}s budget")
        if proc.returncode != 0 or not os.path.exists(result):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
            return self._fail(f"{mode} run {n}: exit {proc.returncode}: {tail[0]}")
        with open(result) as fh:
            rec = json.load(fh)
        if mode == "cli":
            if rec["rc"] != 0:
                return self._fail(f"cli run {n}: kinmix.cli.main returned {rec['rc']}")
            return self._compare(out, rec, everything=True)
        if "wall_end" in rec:
            rec["wall_s"] = rec["wall_end"] - spawned
        fails = gates.check(rec["summary"], w2_decay=self.workload in workloads.W2_DECAY_GATED)
        if fails:
            return self._fail(f"{mode} run {n}: " + "; ".join(fails))
        return self._compare(out, rec, everything=False) if mode != "memory" else rec

    def _compare(self, out: str, rec: dict, everything: bool):
        """Byte-compare with the first run's files: timeseries.csv, or all files."""
        if self.first_out is None:
            self.first_out = out
            return rec
        names = sorted(os.listdir(self.first_out)) if everything else ["timeseries.csv"]
        if everything and sorted(os.listdir(out)) != names:
            return self._fail(f"run {self.attempted}: file names differ from the first run")
        _, mismatch, errors = filecmp.cmpfiles(self.first_out, out, names, shallow=False)
        shutil.rmtree(out, ignore_errors=True)
        if mismatch or errors:
            return self._fail(f"run {self.attempted}: not byte-identical to the first run: {mismatch + errors}")
        return rec

    def keep_spans(self, spans: list) -> None:
        """Write one traced run's spans where they outlive the work directory."""
        path = os.path.join(WORK, f"spans-{self.workload}-seed{self.doc['particles']['seed']}.json")
        with open(path, "w") as fh:
            json.dump(spans, fh)
        print(f"spans of the first traced run: {os.path.relpath(path, ROOT)}")

    def _fail(self, why: str):
        self.failures.append(why)
        return None


def tail_percentile(values: list):
    """(label, value) of the highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def _median_line(name: str, unit: str, vals: list) -> str:
    tail = tail_percentile(vals)
    extra = f", {tail[0]} {tail[1]:.6g}" if tail else ", no percentile has 10 samples beyond it"
    return f"{name}: median {statistics.median(vals):.6g} {unit} over n={len(vals)}{extra}"


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Untraced runs for `seconds`, then the CLI equivalence run; samples per metric."""
    dof, steps = workloads.dof(bench.doc), workloads.steps(bench.doc)
    samples: dict = {}
    start, took = time.monotonic(), []
    while bench.more(start, seconds, took):
        began = time.monotonic()
        rec = bench.child("plain", workloads.WRITES[bench.workload])
        took.append(time.monotonic() - began)
        if rec is None:
            continue
        for name, value in (
            ("wall_s", rec["wall_s"]),
            ("setup_s", rec["setup_s"]),
            ("solve_s", rec["solve_s"]),
            ("output_s", rec["output_s"]),
            ("ns_per_dof_step", 1e9 * rec["solve_s"] / (dof * steps)),
            ("peak_rss_mb", rec["peak_rss_mb"]),
            ("output_mb", rec["output_bytes"] / 1e6),
        ):
            samples.setdefault(name, []).append(value)
    bench.child("cli")
    return samples


def per_layer(bench: Bench, seconds: float) -> dict:
    """Untraced/traced pairs for `seconds`, then the memory pass; one value per metric."""
    plain, traced, steps_ms = [], [], []
    start, took = time.monotonic(), []
    while bench.more(start, seconds, took):
        began = time.monotonic()
        a, b = bench.child("plain"), bench.child("trace")
        took.append(time.monotonic() - began)
        if a is not None:
            plain.append(a["solve_s"])
        if b is not None:
            spans = b.pop("spans")
            if not traced:
                bench.keep_spans(spans)
            traced.append(b)
            steps_ms += b["layers"]["step_ms"]
    memory = bench.child("memory")
    if not traced or not plain or memory is None:
        return {}
    layers = [r["layers"]["metrics"] for r in traced]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    ordered = sorted(steps_ms)  # step samples pooled over the traced runs
    metrics["driver.step.p50_ms"] = statistics.median(ordered) if ordered else 0.0
    metrics["driver.step.p90_ms"] = ordered[math.floor(0.9 * len(ordered))] if ordered else 0.0
    metrics["particles.match.residual_max"] = max(r["summary"].get("residual_max", 0.0) for r in traced)
    metrics["particles.live_frac_99"] = statistics.median(r["summary"].get("live_frac_99", 0.0) for r in traced)
    traced_solve = statistics.median(r["layers"]["solve_s"] for r in traced)
    metrics["trace.solve_s"] = traced_solve
    metrics["trace.overhead_s"] = traced_solve - statistics.median(plain)
    for name, mb in memory["peak_mb"].items():
        metrics[f"{name}.peak_mb"] = mb
    print(f"traced runs n={len(traced)}, untraced n={len(plain)}, driver.step samples n={len(steps_ms)}")
    print(f"tracing overhead: traced solve_s {traced_solve:.6g} s - untraced {statistics.median(plain):.6g} s")
    print("reading 0 here (no calls, or nothing to count): "
          + (", ".join(sorted(k for k, v in metrics.items() if v == 0)) or "none"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kinmix benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (it becomes particles.seed)")
    if not os.path.isfile(os.path.join(ROOT, "src", "kinmix", "__init__.py")):
        print(f"error: no kinmix sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child, and
    # the work directory is removed below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            values = per_layer(bench, args.seconds)
        else:
            samples = end_to_end(bench, args.seconds)
            for name, vals in samples.items():
                print(_median_line(name, units[name], vals))
            values = {name: statistics.median(vals) for name, vals in samples.items()}
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    for why in bench.failures:
        print(f"FAILED {why}")
    print(f"failure_rate: {len(bench.failures)}/{bench.attempted}")
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        print(f"error: no complete set of metrics (missing {missing})", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
