"""Observability smoke run: trace Q1/Q5/Q6, dump introspection artifacts.

Usage::

    PYTHONPATH=src python benchmarks/smoke_obs.py [outdir]

Loads a small TPC-H database (``REPRO_SF``, default 0.002), runs Q1 with
``trace=True`` plus Q6 (and, once the artifacts are written, Q5), and
writes seven artifacts (CI uploads all):

* ``q1_trace.json``    -- Chrome-trace JSON, loadable in Perfetto /
  ``chrome://tracing``: the query's one timeline, lifecycle spans with
  the operators and kernels grafted in at the seconds they recorded
* ``metrics.prom``     -- the full Prometheus text exposition of the
  cluster registry after the run (re-parsed here as a format check)
* ``q1_explain.txt``   -- EXPLAIN ANALYZE of the SQL Q1: the physical
  plan annotated with per-operator actuals
* ``events.txt``       -- the cluster event log dumped via vh$events
* ``alerts.txt``       -- vh$alerts rows plus per-rule evaluation counts
  from the flight recorder's health monitor
* ``metrics_history.json`` -- the sampled metric time series
  (``vh$metrics_history``) as JSON; its latest-sample Prometheus
  rendering is re-parsed with the same format check as metrics.prom
* ``q1_flamegraph.folded``   -- Q1's operator/kernel profile as folded
  stacks (one ``stack count`` pair per line, parse-checked here); feed
  to any flamegraph renderer

The run asserts that the profile reconciles with the clock around it,
on Q1 and on the exchange-heavy Q5: the leaves of the profile tree (each
operator's own seconds plus its kernels') add up to within 2 % of the
wall the run spent stepping its root stream and flushing its exchanges.

It also measures the continuous profiler's overhead: Q1 is timed
with kernel attribution on and off in back-to-back pairs and the median
difference per kernel call is asserted under an absolute microsecond
budget; the best-of-N figures and the share of Q1 are printed as
information. A second budget covers a short statement: 300
one-partition point lookups run through ``execute_sql`` and the median
time per statement in the flight recorder's and the profiler's hooks
is asserted under ``INSTRUMENT_BUDGET_US``.

It also writes ``BENCH_query_log.json`` under ``benchmarks/results/``
(admission wait on the simulated clock, rows and q-error of the
persistent query log) so the trajectory gate tracks the smoke mix
across PRs.

The span tree is also printed so the smoke log shows the lifecycle
(parse -> bind -> rewrite -> assignment -> execute -> commit) at a
glance, along with MinMax pruning effectiveness for the scans Q1/Q6 did.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import statistics
import sys
from typing import List

from repro.common.config import Config
from repro.cluster import VectorHCluster
from repro.engine.profile import set_kernel_profiling
from repro.obs.profiler import folded_stacks, walk
from repro.sql import execute_sql
from repro.tpch import generate_tpch, tpch_schemas
from repro.tpch.queries import q1, q5, q6
from repro.tpch.schema import LOAD_ORDER

Q1_SQL = """
select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
       avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc, count(*) as count_order
from lineitem
where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus
"""

_PROM_LINE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})?\s+[-+0-9.eE]+(\s+\d+)?$"
)


def check_folded(text: str) -> int:
    """Assert every line is one ``stack count`` pair; return the count."""
    lines = [line for line in text.splitlines() if line]
    assert lines, "empty folded-stack output"
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack, f"bad folded line: {line!r}"
        assert int(count) >= 1, f"bad folded count: {line!r}"
    return len(lines)


#: how far the profile tree's seconds may be from the wall of the run
RECONCILE_WITHIN = 0.02


def check_reconciliation(name: str, result) -> str:
    """Every second recorded once: a traced query's profile leaves
    against its ``schedule`` + ``exchange.flush`` spans (the run's
    ``step_wall`` + ``flush_wall``); returns the line to print."""
    spans = {s.name: s for s in result.trace.find("execute").children}
    wall = (spans["schedule"].wall_seconds
            + spans["exchange.flush"].wall_seconds)
    # node.time: the operator's own seconds plus its kernels'
    leaves = sum(node.time for node in result.plan_profiles.values())
    gap = abs(wall - leaves) / wall
    assert gap <= RECONCILE_WITHIN, (
        f"{name}: profile leaves {leaves * 1e3:.3f}ms vs "
        f"{wall * 1e3:.3f}ms stepping and flushing ({100 * gap:.2f}% apart)")
    return (f"  {name}: leaves {leaves * 1e3:.3f}ms of {wall * 1e3:.3f}ms "
            f"step + flush wall ({100 * gap:.2f}% apart; "
            f"within {100 * RECONCILE_WITHIN:.0f}%)")


#: what one ``kernel()`` region may cost (enter + exit + accounting).
#: An absolute budget: as a share of Q1 the same cost "grows" every time
#: Q1 gets faster, and the old 5% gate failed on speed-ups
KERNEL_CALL_BUDGET_US = 5.0
#: Q1 pairs (with, without) timed back to back
OVERHEAD_RUNS = 100


def measure_profiler_overhead(cluster, runs: int = OVERHEAD_RUNS):
    """Q1 wall time with kernel attribution on vs off, ``runs`` pairs.

    Each pair runs back to back, so both sides see the same phase of a
    shared host; returns (on_seconds, off_seconds, kernel calls of one
    Q1), the two lists pair-aligned.
    """
    import time as _time

    def once() -> float:
        t0 = _time.perf_counter()
        q1(lambda plan: cluster.query(plan).batch)
        return _time.perf_counter() - t0

    once()  # warm caches/buffers outside the measurement
    on_times, off_times = [], []
    try:
        for _ in range(runs):
            set_kernel_profiling(True)
            on_times.append(once())
            set_kernel_profiling(False)
            off_times.append(once())
    finally:
        set_kernel_profiling(True)
    profiles = []

    def profiled(plan):
        result = cluster.query(plan)
        profiles.extend(result.profiles)
        return result.batch

    q1(profiled)
    kernel_calls = sum(stat.calls for root in profiles
                       for node in walk(root)
                       for stat in node.kernels.values())
    return on_times, off_times, kernel_calls


#: what the three instrument hooks -- ``FlightRecorder.tick`` and
#: ``record_query``, ``ContinuousProfiler.observe_query`` -- may cost one
#: short statement. Absolute, like the kernel budget: a point lookup's
#: fixed costs decide its latency, and the instruments once cost more
#: than parse, bind and plan together. About 2x the median measured on
#: one shared x86 core (78-110us a lookup)
INSTRUMENT_BUDGET_US = 200.0
#: one-partition point lookups timed for the instrument budget
LOOKUPS = 300


def measure_instrument_cost(cluster, keys) -> List[float]:
    """Microseconds the three instrument hooks spend in each of
    ``LOOKUPS`` point lookups on ``orders``' partition key."""
    import time as _time

    spent = [0.0]

    def timed(hook):
        def wrapper(*args):
            t0 = _time.perf_counter()
            try:
                return hook(*args)
            finally:
                spent[0] += _time.perf_counter() - t0
        return wrapper

    monitor, profiler = cluster.monitor, cluster.profiler
    hooks = cluster.workload.round_hooks
    at = hooks.index(monitor.tick)  # bound when the cluster was built
    hooks[at] = timed(monitor.tick)
    monitor.record_query = timed(monitor.record_query)
    profiler.observe_query = timed(profiler.observe_query)
    per_stmt = []
    try:
        for i in range(LOOKUPS):
            key = int(keys[(i * 37) % len(keys)])
            spent[0] = 0.0
            execute_sql(cluster, "SELECT o_totalprice FROM orders "
                                 f"WHERE o_orderkey = {key}")
            per_stmt.append(spent[0] * 1e6)
    finally:
        hooks[at] = monitor.tick
        del monitor.record_query, profiler.observe_query
    return per_stmt


def check_prometheus_exposition(text: str) -> int:
    """Assert every non-comment line is a valid sample; return the count."""
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"
        float(line.rsplit(None, 1)[-1])
        samples += 1
    assert samples > 0, "empty metrics exposition"
    return samples


def main(outdir: str) -> None:
    scale = float(os.environ.get("REPRO_SF", "0.002"))
    config = Config().scaled_for_tests()
    # deterministic batch costs so the flight recorder's sampled history
    # and the BENCH_query_log.json aggregates are reproducible
    config.workload_deterministic = True
    cluster = VectorHCluster(n_nodes=4, config=config)
    data = generate_tpch(scale, seed=42)
    schemas = tpch_schemas(n_partitions=6)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, data[name])

    # one SQL statement first, so the trace ring shows parse/bind spans
    execute_sql(cluster, "SELECT count(*) AS n FROM lineitem")
    sql_trace = cluster.tracer.last_trace

    traced = []

    def run(plan):
        traced.append(cluster.query(plan, trace=True))
        return traced[-1].batch

    q1(run)
    [q1_result] = traced
    trace = q1_result.trace
    q6(lambda plan: cluster.query(plan).batch)

    explain = execute_sql(cluster, "explain analyze " + Q1_SQL)
    explain_text = "\n".join(str(v) for v in explain.columns["plan"])

    events = execute_sql(
        cluster, "select seq, sim_time, source, kind, detail from vh$events")
    event_lines = [
        f"{int(events.columns['seq'][i]):4d} "
        f"t={float(events.columns['sim_time'][i]):.6f} "
        f"{events.columns['source'][i]}/{events.columns['kind'][i]} "
        f"{events.columns['detail'][i]}"
        for i in range(events.n)
    ]

    # flight recorder: force a final sample so every alert rule has
    # evaluated at least once, then dump history/alerts/query-log views
    monitor = cluster.monitor
    monitor.sample()
    assert monitor.health.evaluations() > 0, "no alert rule evaluated"
    assert len(monitor.history.samples) >= 1, "metrics history is empty"
    history_prom = monitor.history.render_latest()
    history_samples = check_prometheus_exposition(history_prom)
    alert_rows = execute_sql(
        cluster, "select rule, state, value, threshold, raised_sim, "
        "cleared_sim from vh$alerts")
    alert_lines = [
        f"{alert_rows.columns['rule'][i]} state={alert_rows.columns['state'][i]} "
        f"value={float(alert_rows.columns['value'][i]):.4f} "
        f"threshold={float(alert_rows.columns['threshold'][i]):.4f} "
        f"raised={float(alert_rows.columns['raised_sim'][i]):.6f} "
        f"cleared={float(alert_rows.columns['cleared_sim'][i]):.6f}"
        for i in range(alert_rows.n)
    ]
    alert_lines.append(f"-- {alert_rows.n} alerts; per-rule evaluations:")
    for rule in monitor.health.rules:
        alert_lines.append(
            f"   {rule.name}: {monitor.health.evaluations(rule.name)} "
            f"evaluations on {rule.metric}")

    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "q1_trace.json").write_text(trace.chrome_trace_json(indent=1))
    prom = cluster.metrics().render()
    (out / "metrics.prom").write_text(prom)
    (out / "q1_explain.txt").write_text(explain_text + "\n")
    (out / "events.txt").write_text("\n".join(event_lines) + "\n")
    (out / "alerts.txt").write_text("\n".join(alert_lines) + "\n")
    (out / "metrics_history.json").write_text(
        json.dumps(monitor.history.export_json(), indent=1))
    folded = folded_stacks(q1_result.profiles)
    folded_lines = check_folded(folded)
    (out / "q1_flamegraph.folded").write_text(folded)
    samples = check_prometheus_exposition(prom)
    # the workload-manager series must be part of the exposition
    for metric in ("admission_queue_depth", "queries_running",
                   "query_wait_seconds"):
        assert metric in prom, f"workload metric missing: {metric}"

    # trajectory point: aggregates of the persistent query log
    records = cluster.workload.terminal_records()
    finished = [r for r in records if r.state == "finished"]
    assert finished, "query log recorded no finished queries"
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_query_log.json").write_text(json.dumps({
        "scale_factor": scale,
        "workers": 4,
        "queries_logged": len(records),
        "total_wait_s": sum(r.wait_sim for r in finished),
        "max_qerror": max(r.max_qerror for r in finished),
        "total_rows": sum(r.rows for r in finished),
    }, indent=2))
    # Q5 only now: the trajectory point above is the Q1/Q6 mix's
    q5(run)
    reconciled = [check_reconciliation("q1", q1_result),
                  check_reconciliation("q5", traced[-1])]

    print("== SQL statement trace ==")
    print(sql_trace.tree())
    print("== Q1 trace ==")
    print(trace.tree())
    print("== Q1 EXPLAIN ANALYZE ==")
    print(explain_text)
    print("== cluster event log ==")
    print("\n".join(event_lines))
    print("== MinMax pruning (Q1 + Q6 scans) ==")
    snapshot = cluster.metrics().snapshot()
    scanned = snapshot.get("minmax_blocks_scanned_total", {})
    skipped = snapshot.get("minmax_blocks_skipped_total", {})
    for key in sorted(set(scanned) | set(skipped)):
        read, cut = scanned.get(key, 0), skipped.get(key, 0)
        total = read + cut
        pct = 0.0 if total == 0 else 100.0 * cut / total
        print(f"  {key[0]}: scanned={int(read)} skipped={int(cut)} "
              f"({pct:.1f}% pruned)")
    print("== flight recorder ==")
    print(f"  history: {len(monitor.history.samples)} samples, "
          f"{history_samples} series in latest exposition (format OK)")
    print(f"  alerts: {alert_rows.n} raised, "
          f"{monitor.health.evaluations()} rule evaluations")
    print("== slow query report ==")
    print(monitor.slow_report(5))
    print("== hot paths (continuous profiler) ==")
    print(cluster.profiler.report(10))
    print("== profile vs wall (each second once) ==")
    print("\n".join(reconciled))
    on_times, off_times, kernel_calls = measure_profiler_overhead(cluster)
    # the median of the paired differences: the difference of the two
    # minima swings by +-2us per call when one side catches a fast
    # phase of the host the other never sees
    per_call_us = max(0.0, statistics.median(
        on - off for on, off in zip(on_times, off_times))) \
        * 1e6 / kernel_calls
    min_on, min_off = min(on_times), min(off_times)
    print(f"== profiler overhead ==\n  Q1 x{OVERHEAD_RUNS} pairs, "
          f"{kernel_calls} kernel calls: {per_call_us:.2f}us per call "
          f"(median pair; budget {KERNEL_CALL_BUDGET_US}us)\n"
          f"  best-of: {min_on * 1e3:.2f}ms with kernels, "
          f"{min_off * 1e3:.2f}ms without -> "
          f"{max(0.0, min_on - min_off) * 1e6 / kernel_calls:.2f}us per "
          f"call, {100 * max(0.0, min_on / min_off - 1.0):.2f}% of this Q1")
    assert per_call_us <= KERNEL_CALL_BUDGET_US, (
        f"a kernel() region costs {per_call_us:.2f}us, over the "
        f"{KERNEL_CALL_BUDGET_US}us budget")
    instrument_us = statistics.median(
        measure_instrument_cost(cluster, data["orders"]["o_orderkey"]))
    print(f"== instrument overhead ==\n  {LOOKUPS} point lookups: "
          f"{instrument_us:.1f}us per statement in tick + record_query + "
          f"observe_query (median; budget {INSTRUMENT_BUDGET_US}us)")
    assert instrument_us <= INSTRUMENT_BUDGET_US, (
        f"the instruments cost {instrument_us:.1f}us per point lookup, "
        f"over the {INSTRUMENT_BUDGET_US}us budget")
    print(f"\nmetrics.prom: {samples} samples, exposition OK "
          f"(incl. workload admission/running/wait series)")
    print(f"q1_flamegraph.folded: {folded_lines} stacks, format OK")
    print(f"wrote {out}/q1_trace.json metrics.prom q1_explain.txt events.txt "
          f"alerts.txt metrics_history.json q1_flamegraph.folded")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "benchmarks/results/obs")
