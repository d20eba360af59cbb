"""Perf-trajectory gate: merge BENCH_*.json points and fail on regression.

Every benchmark that matters for the repo's performance story writes a
machine-readable ``BENCH_<name>.json`` under ``benchmarks/results/``
(adaptive, concurrency, chaos soak, query-log smoke, ...). This tool
flattens the numeric leaves of each of those files into a
``bench.dotted.path`` -> value map, appends the snapshot as one entry of
``benchmarks/results/BENCH_trajectory.json``, and compares it against
the previous entry. Two kinds of leaf are gated:

* scheduling outcomes on the simulated clock -- leaves ending in ``_s``,
  ``_ms`` or ``_qps`` (makespan, latencies, recovery times, throughput);
* profiler counts -- the ``calls``, ``rows``, ``bytes``, ``batches``,
  ``rows_in``, ``rows_out`` and ``net_bytes`` leaves under
  ``operators.`` / ``kernels.`` (``BENCH_hotpath.json``).

Every other leaf is carried along for the record. Further:

* keys mentioning ``wall`` are exempt (host wall-clock is noisy);
* lower is better, except ``_qps`` where higher is better;
* a metric may drift :data:`TOLERANCE` (25%) before the gate trips, with
  a 1e-6 absolute slack so zero-valued metrics never trip on noise;
* a bench whose context (``scale_factor``/``workers``/``seeds``, or how
  many statements a query-log total sums over) changed since the
  previous entry is recorded but not gated — the
  numbers are not comparable.

When a bench with profiler detail regresses, the gate also *attributes*
the failure: it ranks the per-operator/per-kernel counts by how much
they grew since the previous entry, so the kernel doing the most extra
work is named first (e.g. ``kernels.MScan.decode.pfor.rows +100%``).

Run from the repo root after the benches::

    PYTHONPATH=src python benchmarks/trajectory.py

Exits 1 (after writing the updated trajectory) if any gated metric
regressed beyond tolerance.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = "BENCH_trajectory.json"
MAX_ENTRIES = 50

#: how far a gated metric may drift before the gate trips
TOLERANCE = 0.25
#: leaf-key suffixes of the gated simulated-clock outcomes
GATED_SUFFIXES = ("_s", "_ms", "_qps")
#: flattened-key prefixes carrying per-operator/per-kernel profiler counts
ATTRIBUTION_PREFIXES = ("operators.", "kernels.")
#: the deterministic profiler counts gated under those prefixes
COUNT_LEAVES = frozenset({"calls", "rows", "bytes", "batches", "rows_in",
                          "rows_out", "net_bytes"})
#: keys whose values describe the run, not its performance: a change
#: in any of these makes two entries incomparable for that bench
CONTEXT_KEYS = ("scale_factor", "workers", "seeds", "runs_per_query",
                "queries_logged")


def flatten(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Numeric scalar leaves of a nested dict as ``a.b.c`` -> value.

    Lists are skipped entirely: they hold per-run detail (round counts,
    replan traces) whose length may legitimately change between PRs.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value, path))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def is_count(key: str) -> bool:
    """True for a profiler count under ``operators.`` / ``kernels.``."""
    return (key.startswith(ATTRIBUTION_PREFIXES)
            and key.rsplit(".", 1)[-1] in COUNT_LEAVES)


def is_gated(key: str) -> bool:
    """True when a flattened key participates in the regression check."""
    leaf = key.rsplit(".", 1)[-1]
    if "wall" in leaf:
        return False
    return is_count(key) or leaf.endswith(GATED_SUFFIXES)


def collect(results_dir: pathlib.Path = RESULTS_DIR) -> Dict[str, dict]:
    """Load every BENCH_*.json point file into {bench: {context, metrics}}."""
    benches: Dict[str, dict] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == TRAJECTORY:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # unreadable point: skip loudly
            print(f"trajectory: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        name = path.stem[len("BENCH_"):]
        metrics = flatten(payload)
        context = {k: metrics.pop(k) for k in CONTEXT_KEYS if k in metrics}
        benches[name] = {"context": context, "metrics": metrics}
    return benches


def compare(new: Dict[str, dict],
            old: Dict[str, dict]) -> Tuple[List[dict], List[str]]:
    """Gate ``new`` against ``old``; returns (regressions, skipped)."""
    regressions: List[dict] = []
    skipped: List[str] = []
    for bench, entry in sorted(new.items()):
        prev = old.get(bench)
        if prev is None:
            skipped.append(f"{bench}: new bench, nothing to compare")
            continue
        if entry["context"] != prev.get("context"):
            skipped.append(f"{bench}: context changed "
                           f"{prev.get('context')} -> {entry['context']}")
            continue
        for key, value in sorted(entry["metrics"].items()):
            if not is_gated(key):
                continue
            before = prev["metrics"].get(key)
            if before is None:
                continue
            if key.rsplit(".", 1)[-1].endswith("_qps"):
                floor = before * (1.0 - TOLERANCE) - 1e-6
                if value < floor:
                    regressions.append({
                        "bench": bench, "metric": key, "before": before,
                        "after": value, "limit": floor,
                        "direction": "higher-is-better"})
            else:
                limit = before * (1.0 + TOLERANCE) + 1e-6
                if value > limit:
                    regressions.append({
                        "bench": bench, "metric": key, "before": before,
                        "after": value, "limit": limit,
                        "direction": "lower-is-better"})
    return regressions, skipped


def attribute_regressions(new_metrics: Dict[str, float],
                          old_metrics: Dict[str, float],
                          top: int = 5) -> List[dict]:
    """Diff the profiler count keys of one bench.

    Returns the ``top`` biggest relative increases among the
    ``operators.*`` / ``kernels.*`` counts, each as {key, before, after,
    delta, ratio} -- the "which kernel does more work, and how much
    more" answer for a failed gate. Relative, because calls, rows and
    bytes are not comparable in absolute terms.
    """
    increases: List[dict] = []
    for key, after in new_metrics.items():
        before = old_metrics.get(key)
        if not is_count(key) or before is None or after <= before:
            continue
        ratio = after / before if before > 0 else float("inf")
        increases.append({"key": key, "before": before, "after": after,
                          "delta": after - before, "ratio": ratio})
    increases.sort(key=lambda e: (-e["ratio"], -e["delta"], e["key"]))
    return increases[:top]


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).parent)
        return out.stdout.strip() or None
    except OSError:
        return None


def update_trajectory(results_dir: pathlib.Path = RESULTS_DIR,
                      now: Optional[float] = None) -> int:
    """Append today's snapshot, gate against the previous one, write back.

    Returns the process exit code (0 ok / 1 regression).
    """
    benches = collect(results_dir)
    if not benches:
        print("trajectory: no BENCH_*.json points found; run the "
              "benchmarks first", file=sys.stderr)
        return 1

    traj_path = results_dir / TRAJECTORY
    entries: List[dict] = []
    if traj_path.exists():
        try:
            entries = json.loads(traj_path.read_text()).get("entries", [])
        except ValueError:
            print(f"trajectory: {TRAJECTORY} unreadable, starting fresh",
                  file=sys.stderr)

    previous = entries[-1]["benches"] if entries else {}
    regressions, skipped = compare(benches, previous)

    # attribution: for each regressed bench, name the operator/kernel
    # counts that grew the most between the two entries
    attribution: Dict[str, List[dict]] = {}
    for bench in sorted({reg["bench"] for reg in regressions}):
        culprits = attribute_regressions(
            benches[bench]["metrics"], previous[bench]["metrics"])
        if culprits:
            attribution[bench] = culprits

    entry = {
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ",
            time.gmtime(time.time() if now is None else now)),
        "git": _git_sha(),
        "tolerance": TOLERANCE,
        "benches": benches,
        "regressions": regressions,
        "attribution": attribution,
    }
    entries = (entries + [entry])[-MAX_ENTRIES:]
    traj_path.write_text(json.dumps({"entries": entries}, indent=2))

    gated = sum(1 for b in benches.values()
                for k in b["metrics"] if is_gated(k))
    print(f"trajectory: {len(benches)} benches, {gated} gated metrics, "
          f"tolerance {TOLERANCE:.0%}, {len(entries)} entries recorded")
    for note in skipped:
        print(f"  (skip) {note}")
    for reg in regressions:
        print(f"  REGRESSION {reg['bench']}.{reg['metric']}: "
              f"{reg['before']:.6g} -> {reg['after']:.6g} "
              f"(limit {reg['limit']:.6g}, {reg['direction']})")
    for bench, culprits in attribution.items():
        print(f"  attribution {bench}: fastest-growing operator/kernel "
              "counts")
        for c in culprits:
            pct = (f"+{100 * (c['ratio'] - 1):.0f}%"
                   if c["ratio"] != float("inf") else "new")
            print(f"    {c['key']}: {c['before']:.6g} -> "
                  f"{c['after']:.6g} ({pct})")
    if regressions:
        print("trajectory: FAIL", file=sys.stderr)
        return 1
    print("trajectory: OK")
    return 0


if __name__ == "__main__":
    sys.exit(update_trajectory())
