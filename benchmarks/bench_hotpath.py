"""Hot-path bench: rows/sec per operator kernel + wall clock per query.

Runs a TPC-H mix on a deterministic-schedule cluster and writes the
ROADMAP-mandated ``BENCH_hotpath.json``: per-query wall seconds and
rows, plus the continuous profiler's cumulative per-operator and
per-kernel tables. Their counts (calls, rows, bytes, batches) repeat
exactly, so the trajectory gate (``benchmarks/trajectory.py``) compares
them PR-over-PR -- and when one grows, its attribution mode ranks these
``operators.*`` / ``kernels.*`` counts to name the kernel doing more
work. Wall-clock keys carry ``wall`` in the leaf and stay exempt.

Artifacts: ``BENCH_hotpath.json``, ``hotpath_report.txt`` (top-k hot
paths by wall), ``hotpath_q1_flamegraph.folded``.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Dict, List, Tuple

from benchmarks.conftest import (
    N_PARTITIONS,
    N_WORKERS,
    RESULTS_DIR,
    SCALE_FACTOR,
    bench_config,
    write_report,
)
from repro.cluster import VectorHCluster
from repro.obs.profiler import folded_stacks
from repro.tpch import tpch_schemas
from repro.tpch.queries import QUERIES as TPCH_QUERIES
from repro.tpch.schema import LOAD_ORDER

#: the query mix: scan+aggregation (1), join+topn (3), multi-join (5),
#: selective scan (6), group+join+topn (10), case/aggregation (12)
QUERIES = (1, 3, 5, 6, 10, 12)


def make_cluster(tpch_data) -> VectorHCluster:
    """A deterministic-schedule cluster, so every count repeats."""
    config = bench_config()
    config.workload_deterministic = True
    cluster = VectorHCluster(n_nodes=N_WORKERS, config=config)
    schemas = tpch_schemas(n_partitions=N_PARTITIONS)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


def run_queries(cluster, numbers=QUERIES) -> Tuple[Dict[str, dict], Dict[int, list]]:
    """Execute the mix; returns ({qN: wall/rows}, {N: q-profiles})."""
    queries: Dict[str, dict] = {}
    profiles: Dict[int, list] = {}

    def runner(plan):
        result = cluster.query(plan)
        profiles[number] = result.profiles
        return result.batch

    for number in numbers:
        # one shot per query: a full collection of the session's garbage
        # must not land inside whichever query happens to trip it
        gc.collect()
        t0 = time.perf_counter()
        batch = TPCH_QUERIES[number](runner)
        queries[f"q{number}"] = {
            "wall_s": time.perf_counter() - t0,
            "rows": int(batch.n),
        }
    return queries, profiles


def profiler_tables(profiler) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """What the registry's ``operator_*`` / ``kernel_*`` families hold,
    as JSON-ready operator/kernel maps."""
    operators = {
        kind: {
            "rows_in": rows_in,
            "rows_out": rows_out,
            "batches": batches,
            "net_bytes": net_bytes,
            "wall_s": wall,
            "rows_per_wall_s": rows_per_wall,
        }
        for (kind, _queries, _instances, rows_in, rows_out, batches,
             net_bytes, wall, rows_per_wall) in profiler.rows()
    }
    kernels = {
        kind: {
            name: {
                "calls": stat.calls,
                "rows": stat.rows,
                "bytes": stat.bytes,
                "wall_s": stat.seconds,
                "rows_per_wall_s": (stat.rows / stat.seconds
                                    if stat.seconds > 0 else 0.0),
            }
            for name, stat in table.items()
        }
        for kind, table in profiler.kernels().items()
    }
    return operators, kernels


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def build_payload(cluster, queries: Dict[str, dict]) -> dict:
    operators, kernels = profiler_tables(cluster.profiler)
    return {
        "scale_factor": SCALE_FACTOR,
        "workers": N_WORKERS,
        "queries": queries,
        "operators": operators,
        "kernels": kernels,
    }


def test_bench_hotpath(tpch_data):
    cluster = make_cluster(tpch_data)
    queries, profiles = run_queries(cluster)
    payload = build_payload(cluster, queries)

    # every query produced rows
    for name, entry in payload["queries"].items():
        assert entry["rows"] > 0, name
    # the hot kernels the tentpole names are all present
    kernel_names = {
        name for table in payload["kernels"].values() for name in table
    }
    assert any(k.startswith("decode.") for k in kernel_names)
    assert "scan.read_block" in kernel_names
    assert "aggr.accumulate" in kernel_names
    assert "join.probe" in kernel_names
    assert "exchange.serialize" in kernel_names
    # per-operator-kernel rows/sec is reported for row-carrying kernels
    scan_kind = next(k for k in payload["kernels"] if k.startswith("MScan"))
    decode = [v for name, v in payload["kernels"][scan_kind].items()
              if name.startswith("decode.")]
    assert decode and all(v["rows_per_wall_s"] > 0 for v in decode)
    # ... and for grouping, so the report shows it next to decode
    grouping = [table["aggr.group"] for table in payload["kernels"].values()
                if "aggr.group" in table]
    assert grouping and all(v["rows_per_wall_s"] > 0 for v in grouping)
    # Q1 groups on coded keys of a 3 x 2 domain: both its aggregates add
    # up by slot (aggr.accumulate alone), where the join queries' rank
    # (above) and merge wherever a stream held more than one partial
    q1_aggregates = [node for root in profiles[1] for node in _walk(root)
                     if node.kind == "Aggr"]
    assert len(q1_aggregates) == 2
    for node in q1_aggregates:
        assert "aggr.accumulate" in node.kernels
        assert not {"aggr.group", "aggr.merge"} & set(node.kernels)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_hotpath.json").write_text(
        json.dumps(payload, indent=2))
    folded = folded_stacks(profiles[1])
    (RESULTS_DIR / "hotpath_q1_flamegraph.folded").write_text(folded)

    lines: List[str] = [
        f"HOT PATHS: TPC-H {', '.join(f'q{n}' for n in QUERIES)} "
        f"at SF {SCALE_FACTOR} on {N_WORKERS} workers",
        "",
        f"{'query':<6} {'wall':>10} {'rows':>8}",
    ]
    for name, entry in payload["queries"].items():
        lines.append(f"{name:<6} {entry['wall_s'] * 1e3:>8.1f}ms "
                     f"{entry['rows']:>8}")
    lines += ["", cluster.profiler.report()]
    write_report("hotpath_report.txt", "\n".join(lines))
