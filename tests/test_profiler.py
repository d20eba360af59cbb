"""The continuous operator profiler: kernels, aggregation, attribution.

Covers the ambient ``kernel()`` context manager (nesting self-time,
enable/disable, explicit nodes, accounting), profile coverage across a
TPC-H mix (every physical operator kind that ran shows up with nonzero
rows, including Window and the PDT merge path), the same-seed bit
identity of the deterministic side of ``vh$operator_stats``, the
flamegraph / Chrome-trace exports, the query-log dominant-operator
column, the system tables, and the acceptance scenario: a synthetic
slowdown injected into one decode kernel makes the trajectory gate's
attribution name exactly that kernel.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.bench_hotpath import profiler_tables, run_queries
from benchmarks.trajectory import attribute_regressions, update_trajectory
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.engine.profile import (
    KernelStat,
    ProfileNode,
    format_profile,
    kernel,
    kernel_profiling_enabled,
    pop_sink,
    push_sink,
    set_kernel_profiling,
)
from repro.mpp.logical import LScan, LWindow
from repro.obs.profiler import (
    ContinuousProfiler,
    dominant_operator,
    folded_stacks,
    profile_chrome_trace,
)
from repro.sql import execute_sql
from repro.tpch import tpch_schemas
from repro.tpch.queries import run_query
from repro.tpch.schema import LOAD_ORDER


def _fresh_cluster(tpch_data) -> VectorHCluster:
    config = Config().scaled_for_tests()
    config.workload_deterministic = True
    cluster = VectorHCluster(n_nodes=4, config=config)
    schemas = tpch_schemas(n_partitions=6)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


# ------------------------------------------------------- kernel mechanics


class TestKernelContextManager:
    def test_records_into_ambient_sink(self):
        node = ProfileNode("Op")
        push_sink(node)
        try:
            with kernel("k", rows=7, nbytes=100):
                pass
            with kernel("k", rows=3):
                pass
        finally:
            pop_sink()
        stat = node.kernels["k"]
        assert stat.calls == 2
        assert stat.rows == 10
        assert stat.bytes == 100
        assert stat.seconds >= 0.0

    def test_nested_kernel_subtracts_self_time(self):
        node = ProfileNode("Op")
        with kernel("outer", node=node):
            time.sleep(0.02)
            with kernel("inner", node=node):
                time.sleep(0.02)
        outer, inner = node.kernels["outer"], node.kernels["inner"]
        assert inner.seconds >= 0.015
        # the outer kernel keeps only its own work, not the inner's
        assert 0.015 <= outer.seconds < 0.035
        assert outer.seconds + inner.seconds < 0.08

    def test_noop_without_sink_and_when_disabled(self):
        node = ProfileNode("Op")
        with kernel("orphan", rows=5):  # no sink, no node: null kernel
            pass
        assert not node.kernels
        previous = set_kernel_profiling(False)
        try:
            assert not kernel_profiling_enabled()
            with kernel("off", node=node, rows=5):
                pass
            assert not node.kernels
        finally:
            set_kernel_profiling(previous)
        assert kernel_profiling_enabled()

    def test_account_adds_rows_and_bytes_mid_kernel(self):
        node = ProfileNode("Op")
        with kernel("k", node=node) as k:
            k.account(rows=11, nbytes=22)
            k.account(nbytes=3)
        stat = node.kernels["k"]
        assert stat.rows == 11 and stat.bytes == 25

    def test_pooled_frames_survive_heavy_reuse(self):
        node = ProfileNode("Op")
        for _ in range(200):
            with kernel("a", node=node, rows=1):
                with kernel("b", node=node, rows=2):
                    pass
        assert node.kernels["a"].calls == 200
        assert node.kernels["a"].rows == 200
        assert node.kernels["b"].calls == 200
        assert node.kernels["b"].rows == 400

    def test_merge_and_format(self):
        a = KernelStat(calls=1, seconds=0.5, rows=10, bytes=100)
        a.merge(KernelStat(calls=2, seconds=0.25, rows=5, bytes=1))
        assert (a.calls, a.rows, a.bytes) == (3, 15, 101)
        assert a.seconds == pytest.approx(0.75)
        node = ProfileNode("Op", cum_time=1.0, tuples_out=15)
        node.kernels["decode.pfor"] = a
        text = format_profile(node)
        assert ". kernel decode.pfor:" in text
        assert "calls = 3" in text


def test_dominant_operator_ranking_and_ties():
    heavy = ProfileNode("MScan[t]", kind="MScan", batches=10,
                        tuples_out=100000)
    light = ProfileNode("Project[x]", kind="Project", batches=10,
                        tuples_out=10)
    root = ProfileNode("Aggr[g]", kind="Aggr", batches=1, tuples_out=1,
                       children=[light])
    light.children.append(heavy)
    kind, share = dominant_operator([root])
    assert kind == "MScan"
    assert 0.9 < share <= 1.0
    assert dominant_operator([]) == ("", 0.0)
    # deterministic tie-break: equal cost resolves alphabetically
    a = ProfileNode("B[x]", kind="B", batches=1, tuples_out=10)
    b = ProfileNode("A[y]", kind="A", batches=1, tuples_out=10)
    kind, _ = dominant_operator(
        [ProfileNode("Z", kind="Z", children=[a, b])])
    assert kind == "A"


# ------------------------------------------------------- profile coverage


class TestProfileCoverage:
    """Every physical operator kind that ran appears with nonzero rows."""

    @pytest.fixture(scope="class")
    def mix_cluster(self, tpch_data):
        cluster = _fresh_cluster(tpch_data)
        results = {}

        for number in (1, 3, 6):
            def runner(plan, number=number):
                results[number] = cluster.query(plan)
                return results[number].batch
            run_query(runner, number)
        # window functions over orders exercise engine/window.py
        results["window"] = cluster.query(LWindow(
            LScan("orders", ["o_custkey", "o_totalprice"]),
            ["o_custkey"], ["o_totalprice"],
            [("rn", "row_number", None)]))
        # buffer a tiny insert in PDTs, then scan: the merge path runs
        cluster.insert("region", {
            "r_regionkey": np.array([77]),
            "r_name": np.array(["nowhere"], dtype=object),
            "r_comment": np.array(["pdt"], dtype=object),
        }, force_pdt=True)
        results["pdt_scan"] = cluster.query(
            LScan("region", ["r_regionkey", "r_name"]))
        return cluster, results

    def test_operator_kinds_all_present(self, mix_cluster):
        cluster, results = mix_cluster
        stats = cluster.profiler.stats
        for kind in ("MScan", "Select", "Project", "Aggr", "Sort",
                     "HashJoin", "TopN", "Window"):
            assert kind in stats, sorted(stats)
            agg = stats[kind]
            assert agg.rows_out > 0 or agg.rows_in > 0, kind
            assert agg.batches > 0, kind
            assert agg.instances > 0 and agg.queries > 0, kind
        assert any(k.endswith(".send") for k in stats)
        assert any(k.endswith(".recv") for k in stats)

    def test_window_and_pdt_merge_kernels_attributed(self, mix_cluster):
        cluster, results = mix_cluster
        window = cluster.profiler.stats["Window"]
        assert window.kernels["window.order"].rows > 0
        assert window.kernels["window.eval"].rows > 0
        scan = cluster.profiler.stats["MScan"]
        merge = scan.kernels["scan.pdt_merge"]
        assert merge.calls > 0 and merge.rows > 0
        # the PDT-buffered row is visible in the scan result
        batch = results["pdt_scan"].batch
        assert 77 in list(batch.columns["r_regionkey"])

    def test_hot_path_view_covers_all_work(self, mix_cluster):
        cluster, _ = mix_cluster
        paths = cluster.profiler.hot_paths(k=10_000)
        assert paths
        total_share = sum(entry[8] for entry in paths)
        assert total_share == pytest.approx(1.0, abs=1e-9)
        names = {(op, name) for _, op, name, *_ in paths}
        assert ("MScan", "scan.read_block") in names
        assert ("MScan", "(self)") in names  # residual pseudo-kernel
        report = cluster.profiler.report(5)
        assert "operator" in report and "share" in report

    def test_metrics_registry_carries_operator_series(self, mix_cluster):
        cluster, _ = mix_cluster
        snapshot = cluster.metrics().snapshot()
        rows = snapshot["operator_rows_total"]
        assert any(key[0] == "MScan" and key[1] == "out" and value > 0
                   for key, value in rows.items())
        kcalls = snapshot["kernel_calls_total"]
        assert any(key[1] == "scan.read_block" and value > 0
                   for key, value in kcalls.items())


# --------------------------------------------------- determinism twin run


def _observable_run(tpch_data):
    cluster = _fresh_cluster(tpch_data)
    for number in (1, 6):
        run_query(lambda plan: cluster.query(plan).batch, number)
    # deterministic columns of vh$operator_stats: everything except the
    # wall-seconds tail (and the rows/sec derived from it)
    det_rows = [row[:8] for row in cluster.profiler.rows()]
    det_paths = [(rank, op, name, calls, rows, nbytes, sim, share)
                 for rank, op, name, calls, rows, nbytes, sim, _wall, share
                 in cluster.profiler.hot_paths(k=10_000)]
    log = [(r.fingerprint, r.rows, r.dominant_op,
            round(r.dominant_share, 12))
           for r in cluster.workload.terminal_records()]
    return det_rows, det_paths, log


def test_twin_run_operator_stats_bit_identical(tpch_data):
    first = _observable_run(tpch_data)
    second = _observable_run(tpch_data)
    assert first == second


def test_wall_clock_families_exclude_profiler_series():
    from repro.obs.monitor import WALL_CLOCK_FAMILIES
    assert "operator_wall_seconds_total" in WALL_CLOCK_FAMILIES
    assert "kernel_wall_seconds_total" in WALL_CLOCK_FAMILIES
    assert "executor_stream_seconds" in WALL_CLOCK_FAMILIES


# ------------------------------------------------ exports + system tables


class TestExportsAndSystemTables:
    @pytest.fixture(scope="class")
    def queried(self, tpch_data):
        cluster = _fresh_cluster(tpch_data)
        captured = {}

        def runner(plan):
            captured["result"] = cluster.query(plan)
            return captured["result"].batch

        run_query(runner, 1)
        return cluster, captured["result"]

    def test_folded_stacks_parse_and_cover_kernels(self, queried):
        _, result = queried
        folded = folded_stacks(result.profiles)
        lines = [line for line in folded.splitlines() if line]
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) >= 1, line
        assert any(";kernel:scan.read_block" in line for line in lines)
        assert any(";kernel:decode." in line for line in lines)
        # frames never contain whitespace or the stack separator
        for line in lines:
            stack = line.rpartition(" ")[0]
            assert " " not in stack

    def test_chrome_trace_structure(self, queried):
        _, result = queried
        trace = json.loads(profile_chrome_trace(result.profiles))
        events = trace["traceEvents"]
        assert events and trace["displayTimeUnit"] == "ms"
        cats = {e["cat"] for e in events}
        assert cats == {"operator", "kernel"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 1
        ops = [e for e in events if e["cat"] == "operator"]
        assert all("rows_out" in e["args"] for e in ops)

    def test_operator_stats_system_table(self, queried):
        cluster, _ = queried
        out = execute_sql(
            cluster, "select operator, rows_out, batches, sim_cost_s, "
            "rows_per_s from vh$operator_stats")
        assert out.n > 0
        kinds = list(out.columns["operator"])
        assert "MScan" in kinds and "Aggr" in kinds
        idx = kinds.index("MScan")
        assert int(out.columns["rows_out"][idx]) > 0
        assert float(out.columns["sim_cost_s"][idx]) > 0

    def test_hot_paths_system_table(self, queried):
        cluster, _ = queried
        out = execute_sql(
            cluster, "select rank, operator, kernel, calls, sim_cost_s, "
            "share from vh$hot_paths")
        assert out.n > 0
        assert int(out.columns["rank"][0]) == 1
        kernels = set(out.columns["kernel"])
        assert "scan.read_block" in kernels
        shares = [float(s) for s in out.columns["share"]]
        assert shares == sorted(shares, reverse=True)

    def test_query_log_names_dominant_operator(self, queried):
        cluster, _ = queried
        out = execute_sql(
            cluster, "select state, dominant, dominant_share "
            "from vh$query_log")
        finished = [i for i in range(out.n)
                    if out.columns["state"][i] == "finished"]
        assert finished
        dominated = [i for i in finished if out.columns["dominant"][i]]
        assert dominated, "no finished query has a dominant operator"
        for i in dominated:
            assert 0.0 < float(out.columns["dominant_share"][i]) <= 1.0
        report = cluster.monitor.slow_report(5)
        assert "dominant" in report
        assert any(out.columns["dominant"][i] in report for i in dominated)


def test_profiler_aggregates_without_registry():
    profiler = ContinuousProfiler()  # registry-less: pure aggregation
    scan = ProfileNode("MScan[t]", kind="MScan", batches=4, tuples_out=4000)
    scan.kernels["decode.pfor"] = KernelStat(
        calls=4, seconds=0.1, rows=4000, bytes=640)
    root = ProfileNode("Aggr[g]", kind="Aggr", batches=1, tuples_out=2,
                       children=[scan])

    class _Result:
        profiles = [root]

    profiler.observe_query(_Result())
    profiler.observe_query(_Result())
    assert profiler.queries_observed == 2
    agg = profiler.stats["MScan"]
    assert agg.queries == 2 and agg.rows_out == 8000
    assert agg.kernels["decode.pfor"].calls == 8
    profiler.reset()
    assert not profiler.stats and profiler.queries_observed == 0


# -------------------------------------------- regression attribution gate


def test_attribute_regressions_ranks_kernel_deltas():
    old = {
        "kernels.MScan.decode.pfor.sim_cost_s": 1.0,
        "kernels.MScan.decode.pfor.wall_s": 1.0,
        "kernels.Aggr.aggr.group.sim_cost_s": 1.1,
        "operators.MScan.sim_cost_s": 2.9,
        "queries.q1.sim_s": 4.0,
    }
    new = {
        "kernels.MScan.decode.pfor.sim_cost_s": 2.0,   # +1.0 <- top culprit
        "kernels.MScan.decode.pfor.wall_s": 9.0,       # wall: exempt
        "kernels.Aggr.aggr.group.sim_cost_s": 1.0,     # improved: skipped
        "operators.MScan.sim_cost_s": 3.0,             # +0.1
        "queries.q1.sim_s": 5.0,                       # not an attr prefix
    }
    culprits = attribute_regressions(new, old)
    keys = [c["key"] for c in culprits]
    assert keys == ["kernels.MScan.decode.pfor.sim_cost_s",
                    "operators.MScan.sim_cost_s"]
    assert culprits[0]["ratio"] == pytest.approx(2.0)
    assert attribute_regressions({}, {}) == []


def test_synthetic_slowdown_names_the_exact_kernel(
        tpch_data, tmp_path, monkeypatch):
    """Acceptance: injecting a slowdown into the scan decode kernel makes
    the trajectory gate fail AND its attribution diff name that kernel."""

    def payload(cluster, queries):
        operators, kernels = profiler_tables(cluster.profiler)
        return {"scale_factor": 0.002, "workers": 4, "queries": queries,
                "operators": operators, "kernels": kernels}

    baseline = _fresh_cluster(tpch_data)
    queries, _profiles = run_queries(baseline, numbers=(1, 6))
    (tmp_path / "BENCH_hotpath.json").write_text(
        json.dumps(payload(baseline, queries)))
    assert update_trajectory(results_dir=tmp_path, now=0.0) == 0

    # inject: every block decode now runs twice, so the decode kernels'
    # deterministic calls/rows double while everything else holds still
    import repro.storage.colstore as colstore
    real_decompress = colstore.decompress

    def doubled(block, ctype):
        real_decompress(block, ctype)
        return real_decompress(block, ctype)

    monkeypatch.setattr(colstore, "decompress", doubled)
    slowed = _fresh_cluster(tpch_data)
    queries2, _ = run_queries(slowed, numbers=(1, 6))
    (tmp_path / "BENCH_hotpath.json").write_text(
        json.dumps(payload(slowed, queries2)))
    assert update_trajectory(results_dir=tmp_path, now=0.0) == 1

    entries = json.loads(
        (tmp_path / "BENCH_trajectory.json").read_text())["entries"]
    last = entries[-1]
    regressed = {r["metric"] for r in last["regressions"]
                 if r["bench"] == "hotpath"}
    assert any(m.startswith("kernels.MScan.decode.") for m in regressed)
    culprits = [c["key"] for c in last["attribution"]["hotpath"]]
    assert culprits, "gate failed without attributing a culprit"
    # the injected kernel is the *top* named culprit, roughly doubled
    assert culprits[0].startswith("kernels.MScan.decode.")
    top = last["attribution"]["hotpath"][0]
    assert top["ratio"] == pytest.approx(2.0, rel=0.2)
    # the per-query sim seconds stayed still: the slowdown is visible
    # only through kernel attribution, which is the point
    assert queries2["q1"]["sim_s"] == pytest.approx(
        queries["q1"]["sim_s"], rel=1e-9)
