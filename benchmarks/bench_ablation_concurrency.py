"""Ablation: multi-query concurrency through the workload manager.

The execution core schedules *all* admitted queries on one shared
simulated clock: each global round gives every running query one turn
and charges only the slowest turn (the queries hold disjoint core
slots). This bench runs the same 8-query TPC-H mix (two copies each of
Q1/Q3/Q6/Q14) at admission levels 1/2/4/8 with the deterministic batch
cost model and reports, per level:

* simulated makespan and throughput (queries per simulated second),
* p50/p95 query latency (submit -> finish, including queue wait),
* fairness: the max/min ratio of scheduler rounds between the two
  copies of the same query (1.0 = perfectly even turn allocation),
* peak per-node memory measured by the shared meter.

Level 1 *is* the serial baseline, so the table doubles as the
serial-vs-interleaved makespan comparison; the bench asserts the
4-concurrent makespan beats the sum of serial per-query runtimes, and
that a repeated 4-concurrent run is bit-identical (clock and rounds).

Writes ``ablation_concurrency.txt`` and a machine-readable
``ablation_concurrency.json`` under ``benchmarks/results/`` (CI uploads
both).
"""

from __future__ import annotations

import json

from benchmarks.conftest import RESULTS_DIR, SCALE_FACTOR, write_report
from repro.common.config import Config
from repro.cluster import VectorHCluster
from repro.obs import Histogram
from repro.tpch import tpch_schemas
from repro.tpch.queries import q1, q3, q6, q14
from repro.tpch.schema import LOAD_ORDER

LEVELS = (1, 2, 4, 8)
QUERIES = (("q1", q1), ("q3", q3), ("q6", q6), ("q14", q14))
COPIES = 2

#: fine geometric grid (~33% steps, 1us..100s) so interpolated latency
#: quantiles resolve the mix's ~0.1-10ms simulated latencies
LATENCY_BUCKETS = tuple(10 ** (i / 8) for i in range(-48, 17))


def _fresh_cluster(tpch_data, max_concurrent: int) -> VectorHCluster:
    config = Config().scaled_for_tests()
    config.workload_deterministic = True
    config.workload_max_concurrent = max_concurrent
    cluster = VectorHCluster(n_nodes=4, config=config)
    schemas = tpch_schemas(n_partitions=8)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


def _capture_plans(cluster):
    """Run each query once, keeping the logical plans it executes."""
    plans = []
    for name, q in QUERIES:
        start = len(plans)

        def run(plan):
            plans.append((name, plan))  # noqa: B023 - consumed immediately
            return cluster.query(plan).batch

        q(run)
        assert len(plans) > start
    return plans


def _run_mix(cluster, plans):
    """Submit every plan COPIES times, drain, and measure the batch."""
    clock0 = cluster.sim_clock.seconds
    submitted = []  # (mix name, query id)
    for copy in range(COPIES):
        for name, plan in plans:
            submitted.append((name, cluster.submit(plan)))
    # gather hands each result over exactly once: keep what is needed
    serial_total = sum(cluster.gather(qid).simulated_parallel_seconds
                       for _name, qid in submitted)
    makespan = cluster.sim_clock.seconds - clock0
    records = {r.query_id: r for r in cluster.workload.query_records()}
    latencies = Histogram("mix_latency_seconds", "submit -> finish",
                          buckets=LATENCY_BUCKETS)
    rounds_by_name = {}
    for name, qid in submitted:
        record = records[qid]
        assert record.state == "finished"
        latencies.observe(record.finish_sim - record.submit_sim)
        rounds_by_name.setdefault(name, []).append(record.rounds)
    fairness = max(max(r) / min(r) for r in rounds_by_name.values())
    return {
        "makespan_s": makespan,
        "throughput_qps": len(submitted) / makespan,
        "p50_latency_s": latencies.quantile(0.50),
        "p95_latency_s": latencies.quantile(0.95),
        "fairness_max_over_min_rounds": fairness,
        "peak_node_memory_bytes": max(
            cluster.workload.meter.peak_by_node().values(), default=0),
        "serial_sum_s": serial_total,
        "rounds": sorted(r for rs in rounds_by_name.values() for r in rs),
    }


def test_concurrency_ablation(tpch_data):
    results = {}
    for level in LEVELS:
        cluster = _fresh_cluster(tpch_data, level)
        if level == LEVELS[0]:
            plans = _capture_plans(cluster)
        results[level] = _run_mix(cluster, plans)

    # level 1 runs the queries strictly one after another: its per-query
    # simulated times are the serial baseline the makespan must beat
    serial_total = results[1]["makespan_s"]
    assert abs(results[1]["serial_sum_s"] - serial_total) < 1e-6
    assert results[4]["makespan_s"] < serial_total
    assert results[8]["throughput_qps"] > results[1]["throughput_qps"]

    # determinism: a fresh 4-concurrent run reproduces clocks and rounds
    repeat = _run_mix(_fresh_cluster(tpch_data, 4), plans)
    assert repeat["makespan_s"] == results[4]["makespan_s"]
    assert repeat["rounds"] == results[4]["rounds"]

    lines = ["ABLATION: concurrent admission levels, 8-query TPC-H mix "
             f"(2x {'/'.join(n for n, _ in QUERIES)}, deterministic costs)",
             f"{'concurrency':>11} {'makespan':>10} {'throughput':>11} "
             f"{'p50 lat':>9} {'p95 lat':>9} {'fairness':>9} {'peak mem':>9}"]
    for level in LEVELS:
        r = results[level]
        lines.append(
            f"{level:>11} {r['makespan_s']:>9.4f}s "
            f"{r['throughput_qps']:>7.1f} q/s "
            f"{r['p50_latency_s']:>8.4f}s {r['p95_latency_s']:>8.4f}s "
            f"{r['fairness_max_over_min_rounds']:>9.3f} "
            f"{r['peak_node_memory_bytes'] / 2**20:>7.2f}MB")
    speedup = serial_total / results[4]["makespan_s"]
    lines.append(f"serial-vs-interleaved: {serial_total:.4f}s serial, "
                 f"{results[4]['makespan_s']:.4f}s at 4 concurrent "
                 f"({speedup:.2f}x), repeat run identical")
    write_report("ablation_concurrency.txt", "\n".join(lines))
    (RESULTS_DIR / "ablation_concurrency.json").write_text(json.dumps(
        {str(level): results[level] for level in LEVELS}, indent=2))
    # machine-readable trajectory point (benchmarks/trajectory.py gates on
    # these across PRs); sim-clock metrics only, so it is run-to-run stable
    (RESULTS_DIR / "BENCH_concurrency.json").write_text(json.dumps({
        "scale_factor": SCALE_FACTOR,
        "workers": 4,
        "levels": {
            str(level): {
                "makespan_s": results[level]["makespan_s"],
                "throughput_qps": results[level]["throughput_qps"],
                "p50_latency_s": results[level]["p50_latency_s"],
                "p95_latency_s": results[level]["p95_latency_s"],
            } for level in LEVELS},
        "speedup_serial_over_4conc": speedup,
    }, indent=2))
