"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is what the driver
calls (see ``BENCHMARK.json``); ``--smoke`` is the short version the
smoke test runs; ``--out FILE`` appends the full result to a JSON file
that ``--compare A.json B.json`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"


def declaration() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds live there
    and nowhere else."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def with_units(values: Dict[str, float], declared: List[dict]) -> dict:
    """Exactly the declared metrics, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]),
                        "unit": m["unit"]} for m in declared}


def _print_metrics(title: str, metrics: dict, counts: dict) -> None:
    print(f"-- {title}")
    for name, entry in metrics.items():
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}{samples}")


def run(args, declared: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: no src/repro beside the benchmark -- "
              "nothing to measure", file=sys.stderr)
        return 2
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    seconds = (args.seconds if args.seconds is not None
               else declared["run_seconds"])
    trace_path = OUT_DIR / f"{args.workload}.trace.json"
    result = run_workload(
        WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
        smoke=args.smoke, trace_path=trace_path)

    metrics: Dict[str, dict] = {}
    counts = result.get("counts", {})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'smoke' if args.smoke else f'{seconds:g} s'}  "
          f"{'traced' if args.trace else 'timed'}")
    if "end_to_end" in result:
        part = with_units(result["end_to_end"], declared["end_to_end"])
        _print_metrics("end to end (timed pass, no tracing)", part, counts)
        print("-- median latency per template, ms")
        for template, value in result["templates_ms"].items():
            print(f"{template:44s} {value:>16.6g} ms")
        metrics.update(part)
    if "per_layer" in result:
        part = with_units(result["per_layer"], declared["per_layer"])
        _print_metrics("per layer (traced rounds, probes, counts)", part, {})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics.update(part)
    print(f"speed kernel {result['calib_ms']:.3f} ms (times are normalised "
          "to the reference host, see harness.SpeedKernel)"
          + ("; noisy: the host's speed moved by more than 10% during "
             "the run" if result["noisy"] else ""))
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.out:
        path = Path(args.out)
        runs = json.loads(path.read_text()) if path.exists() else []
        runs.append({**{k: result[k] for k in (
            "workload", "seed", "smoke", "attempted", "failed", "correct")},
            "noisy": result["noisy"], "calib_ms": result["calib_ms"],
            "layer_sum_error": result.get("layer_sum_error"),
            "metrics": metrics})
        path.write_text(json.dumps(runs, indent=1))

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    declared = declaration()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="SF 0.005, ~20 statements, both passes")
    parser.add_argument("--out", help="append the result to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from benchmarks.e2e.compare import compare
        return compare(args.compare[0], args.compare[1], declared)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args, declared)
