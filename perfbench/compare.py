"""``python -m perfbench compare A.json B.json``: B against A, metric by metric."""

from __future__ import annotations

import json
from pathlib import Path

from .common import load_contract


def _failed_share(entry: dict) -> float:
    """A run that attempted nothing counts as failed outright."""
    attempted = entry.get("attempted", 0)
    return entry.get("failed", 0) / attempted if attempted else 1.0


def _worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    change = new - base if better == "lower" else base - new
    if base == 0:
        return 0.0 if change == 0 else change * float("inf")
    return change / abs(base)


def compare(path_a: Path, path_b: Path) -> int:
    """Print one row per (workload, end-to-end metric); 1 if B regressed.

    The ratio is B / A, so its base is A's value, printed beside it. A
    metric is ``regressed`` when B is worse than A by more than the
    metric's bound (a share of A), ``improved`` when better by more than
    the bound, else ``ok``. A workload or a metric that A has and B has
    not is ``missing`` and counts as a regression, as does any rise in a
    workload's failed share whatever the metrics say.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    metrics = load_contract()["end_to_end"]
    regressions = 0
    print(f"{'workload':14} {'metric':24} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for workload in sorted(a):
        if workload not in b:
            regressions += 1
            print(f"{workload:14} {'(every metric)':24} {'':14} {'':14} {'':8} {'':6}  missing")
            continue
        before = a[workload].get("end_to_end", {})
        after = b[workload].get("end_to_end", {})
        for metric in metrics:
            name = metric["name"]
            if name not in before:
                continue
            base = before[name]["value"]
            if name not in after:
                regressions += 1
                print(f"{workload:14} {name:24} {base:14.6g} {'':14} {'':8} "
                      f"{metric['bound']:6.2f}  missing")
                continue
            new = after[name]["value"]
            worse = _worsening(base, new, metric["better"])
            if worse > metric["bound"]:
                verdict = "regressed"
                regressions += 1
            elif worse < -metric["bound"]:
                verdict = "improved"
            else:
                verdict = "ok"
            ratio = f"{new / base:8.4f}" if base else f"{'':8}"
            print(f"{workload:14} {name:24} {base:14.6g} {new:14.6g} "
                  f"{ratio} {metric['bound']:6.2f}  {verdict}")
        share_a, share_b = _failed_share(a[workload]), _failed_share(b[workload])
        verdict = "regressed" if share_b > share_a else "ok"
        regressions += share_b > share_a
        print(f"{workload:14} {'failed_share':24} {share_a:14.6g} {share_b:14.6g} "
              f"{'':8} {0:6.2f}  {verdict}")
    for workload in sorted(set(b) - set(a)):
        print(f"{workload:14} only in B, nothing to compare it with")
    return 1 if regressions else 0
