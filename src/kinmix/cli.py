"""Command line interface: `kinmix run <config.json>` and `kinmix presets`."""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kinmix", description="two-species BGK mixture simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a simulation from a JSON config")
    run_p.add_argument("config", help="path to the JSON configuration")
    run_p.add_argument("--out", default=".", help="output directory (default: current directory)")
    run_p.add_argument("--seed", type=int, default=None, help="override particles.seed")

    sub.add_parser("presets", help="list the built-in experiment presets")

    args = parser.parse_args(argv)

    from .config import PRESETS, ConfigError, config_to_json, parse_config, write_snapshot, write_timeseries
    from .model import ParameterError

    if args.command == "presets":
        for name, desc in PRESETS.items():
            print(f"{name}: {desc}")
        return 0

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.seed is not None:  # the override goes through the same checks
            cfg = parse_config(config_to_json(replace(cfg, seed=args.seed)))
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 1
    except (ConfigError, ParameterError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return 1

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 1

    from .driver import run

    t0 = time.perf_counter()
    try:
        result = run(cfg)
        write_timeseries(os.path.join(args.out, "timeseries.csv"), result)
        for i, snap in enumerate(result.snapshots):
            write_snapshot(args.out, snap, i)
    except Exception as e:  # CLI boundary: report and exit nonzero
        print(f"error: run failed: {e}", file=sys.stderr)
        return 1
    print(
        f"wrote {len(result.times)} outputs to {args.out} in {time.perf_counter() - t0:.2f} s wall; "
        f"skipped cells: {result.skipped_cells_total}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
