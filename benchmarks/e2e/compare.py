"""``--compare A.json B.json``: one row per (workload, end-to-end metric).

Both files are lists of runs written with ``--out``. A metric is ``ok``
when B's median is no worse than A's by more than the bound declared in
``BENCHMARK.json``, ``worse`` when it is, and ``unresolved`` when the
spread between repeated runs of either side is wider than the bound (so
the comparison cannot say).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List


def _load(path: str) -> Dict[tuple, List[float]]:
    values: Dict[tuple, List[float]] = defaultdict(list)
    with open(path) as handle:
        for run in json.load(handle):
            for name, entry in run["metrics"].items():
                values[(run["workload"], name)].append(entry["value"])
    return values


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (the
    whole range when there are too few runs for quartiles)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def compare(path_a: str, path_b: str, declared: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    header = (f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} "
              f"{'B/A':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    print(header)
    bad = 0
    for workload in [w["name"] for w in declared["workloads"]]:
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            base, new = statistics.median(a[key]), statistics.median(b[key])
            ratio = new / base
            worse_by = (ratio - 1.0 if metric["better"] == "lower"
                        else 1.0 - ratio)
            noise = max(spread(a[key]), spread(b[key]))
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{workload:14s} {metric['name']:16s} {base:12.5g} "
                  f"{new:12.5g} {ratio:8.4f} {metric['bound']:6.2f} "
                  f"{noise:7.4f}  {verdict}  "
                  f"(A n={len(a[key])}, B n={len(b[key])}, base A)")
    return 1 if bad else 0
