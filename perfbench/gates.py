"""Correctness gates on one run's summary (see `child.run_summary`).

The bounds come from the acceptance criteria; a run that fails any gate
counts toward the failure rate. Every function returns the list of failed
gates, each as one line of text, so an empty list means the run passed.
"""
from __future__ import annotations

import math

MASS_DRIFT = 1e-12  # absolute, criteria 5 and 6
GENERAL_DRIFT_PER_T = 1e-8  # momentum and energy, criterion 5 (frozen)
HOMOGENEOUS_DRIFT_PER_T = 1e-6  # criterion 5, homogeneous clause
MATCH_RESIDUAL = 1e-12  # criterion 4
ANALYTIC_LAW = 5e-2  # criteria 1 and 2, relative
MIN_F = -1e-12  # reference solver positivity
W2_DECAY = 10.0  # criterion 7: sum|w2| first output / last output


def _drift(series, t_end: float) -> float:
    return max(abs(x - series[0]) for x in series) / t_end


def _rel_err(measured, analytic, floor: float) -> float:
    errs = [abs(m / a - 1.0) for m, a in zip(measured, analytic) if m > floor]
    return max(errs, default=0.0)


def check(summary: dict, w2_decay: bool = False) -> list:
    """Gates for one run; `w2_decay` adds criterion 7's weight-decay gate."""
    fails = []
    s = summary["series"]
    mode = summary["mode"]
    t_end = summary["times"][-1]
    if summary["skipped_cells_total"] != 0:
        fails.append(f"skipped_cells_total {summary['skipped_cells_total']} != 0")
    if not summary["finite"]:
        fails.append("non-finite output")
    mass = max(abs(x - s[k][0]) for k in ("mass1", "mass2") for x in s[k])

    if mode == "homogeneous":
        if mass != 0.0:
            fails.append(f"mass not exact: drift {mass:.3e}")
        for k in ("momentum", "energy"):
            d = _drift(s[k], t_end)
            if not d <= HOMOGENEOUS_DRIFT_PER_T:
                fails.append(f"{k} drift/t {d:.3e} > {HOMOGENEOUS_DRIFT_PER_T:g}")
        eu = _rel_err(s["gap_u_sq"], s["analytic_gap_u_sq"], 1e-6)
        eT = _rel_err(s["gap_T_inf"], [abs(a) for a in s["analytic_gap_T"]], 1e-4)
        if not max(eu, eT) <= ANALYTIC_LAW:
            fails.append(f"analytic law error u {eu:.3e}, T {eT:.3e} > {ANALYTIC_LAW:g}")
    elif not mass <= MASS_DRIFT:
        fails.append(f"mass drift {mass:.3e} > {MASS_DRIFT:g}")

    if mode == "general":
        for k in ("momentum", "energy"):
            d = _drift(s[k], t_end)
            if not d <= GENERAL_DRIFT_PER_T:
                fails.append(f"{k} drift/t {d:.3e} > {GENERAL_DRIFT_PER_T:g}")
        r = summary["residual_max"]
        if not r <= MATCH_RESIDUAL:
            fails.append(f"matching residual {r:.3e} > {MATCH_RESIDUAL:g}")
        if w2_decay:
            w2 = s["sum_abs_w2"]
            ratio = w2[0] / w2[-1] if w2[-1] > 0 else math.inf
            if not ratio >= W2_DECAY:
                fails.append(f"sum|w2| decay {ratio:.3g} < {W2_DECAY:g}")

    if mode == "reference" and not summary["min_f"] >= MIN_F:
        fails.append(f"min f {summary['min_f']:.3e} < {MIN_F:g}")
    return fails
