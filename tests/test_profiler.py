"""The continuous operator profiler: kernels, aggregation, attribution.

Covers the frame stack under the ambient ``kernel()`` context manager
(nested frames take their seconds out of the enclosing one, operator
pulls included; enable/disable, explicit nodes, accounting), profile
coverage across a TPC-H mix (every physical operator kind that ran shows
up with nonzero rows, including Window and the PDT merge path), the
same-seed bit identity of the counts of ``vh$operator_stats`` and
``vh$hot_paths``, the flamegraph export and the operators and
kernels grafted into the lifecycle trace, the query-log
dominant-operator column, the system tables (which read the registry
families and nothing else), and the acceptance scenario: a synthetic
slowdown injected into one decode kernel makes the trajectory gate
fail on that kernel's counts and its attribution name it first.
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
    Frame,
    KernelStat,
    ProfileNode,
    format_profile,
    kernel,
    set_kernel_profiling,
)
from repro.mpp.logical import LScan, LWindow
from repro.obs import MetricsRegistry
from repro.obs.profiler import ContinuousProfiler, folded_stacks
from repro.sql import execute_sql
from repro.tpch import tpch_schemas
from repro.tpch import QUERIES
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
        node, other = ProfileNode("Op"), ProfileNode("Child")
        with Frame(node):
            with kernel("k", rows=7, nbytes=100):
                pass
            with Frame(other):  # a child operator's pull
                with kernel("theirs"):
                    pass
            with kernel("k", rows=3):
                pass
        stat = node.kernels["k"]
        assert stat.calls == 2
        assert stat.rows == 10
        assert stat.bytes == 100
        assert stat.seconds >= 0.0
        assert set(other.kernels) == {"theirs"}

    def test_a_pull_keeps_only_what_no_nested_frame_took(self):
        parent, child = ProfileNode("Op"), ProfileNode("Child")
        pulls = Frame(parent)
        for _ in range(2):  # one frame serves every pull of a stream
            with pulls:
                time.sleep(0.01)
                with kernel("k"):
                    time.sleep(0.01)
                with Frame(child):
                    time.sleep(0.01)
        assert pulls.seconds >= 0.06  # the stream's sample: everything
        assert 0.02 <= parent.own_seconds < 0.035
        assert 0.02 <= parent.kernels["k"].seconds < 0.035
        assert 0.02 <= child.own_seconds < 0.035
        assert parent.time == pytest.approx(
            parent.own_seconds + parent.kernels["k"].seconds)
        # each second once: the three add up to what the frame measured
        assert (parent.time + child.time
                == pytest.approx(pulls.seconds, rel=1e-9))

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
        with kernel("orphan", rows=5):  # no frame, no node: null kernel
            pass
        assert not node.kernels
        previous = set_kernel_profiling(False)
        try:
            with kernel("off", node=node, rows=5):
                pass
            assert not node.kernels
        finally:
            assert set_kernel_profiling(previous) is False
        assert set_kernel_profiling(True) is True

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

    def test_format_shows_kernels_and_measured_time(self):
        node = ProfileNode("Op", cum_time=1.0, tuples_out=15,
                           own_seconds=0.125)
        node.kernels["decode.pfor"] = KernelStat(
            calls=3, seconds=0.75, rows=15, bytes=101)
        # time is what the frames recorded, whatever the children say
        node.children.append(ProfileNode("Child", cum_time=5.0))
        text = format_profile(node)
        assert ". kernel decode.pfor:" in text
        assert "calls = 3" in text
        assert "time = 0.8750s  cum_time = 1.0000s" in text


class _Profiled:
    """As much of a QueryResult as the profiler reads and writes."""

    def __init__(self, *profiles):
        self.profiles = list(profiles)
        self.dominant = ("", 0.0)


def _dominant(*profiles):
    result = _Profiled(*profiles)
    ContinuousProfiler().observe_query(result)
    return result.dominant


def test_dominant_operator_ranking_and_ties():
    heavy = ProfileNode("MScan[t]", kind="MScan", own_seconds=0.5)
    heavy.kernels["decode.pfor"] = KernelStat(calls=1, seconds=0.45)
    light = ProfileNode("Project[x]", kind="Project", own_seconds=0.04,
                        children=[heavy])
    root = ProfileNode("Aggr[g]", kind="Aggr", own_seconds=0.01,
                       children=[light])
    kind, share = _dominant(root)
    assert kind == "MScan"  # its kernels' wall counts towards it
    assert share == pytest.approx(0.95)
    assert _dominant() == ("", 0.0)
    # tie-break: equal wall resolves alphabetically
    a = ProfileNode("B[x]", kind="B", own_seconds=0.25)
    b = ProfileNode("A[y]", kind="A", own_seconds=0.25)
    kind, _ = _dominant(ProfileNode("Z", kind="Z", children=[a, b]))
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
            QUERIES[number](runner)
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
        stats = {row[0]: row for row in cluster.profiler.rows()}
        for kind in ("MScan", "Select", "Project", "Aggr", "Sort",
                     "HashJoin", "TopN", "Window"):
            assert kind in stats, sorted(stats)
            (_, queries, instances, rows_in, rows_out, batches,
             *_rest) = stats[kind]
            assert rows_out > 0 or rows_in > 0, kind
            assert batches > 0, kind
            assert instances > 0 and queries > 0, kind
        assert any(k.endswith(".send") for k in stats)
        assert any(k.endswith(".recv") for k in stats)

    def test_window_and_pdt_merge_kernels_attributed(self, mix_cluster):
        cluster, results = mix_cluster
        kernels = cluster.profiler.kernels()
        assert kernels["Window"]["window.order"].rows > 0
        assert kernels["Window"]["window.eval"].rows > 0
        merge = kernels["MScan"]["scan.pdt_merge"]
        assert merge.calls > 0 and merge.rows > 0
        # the PDT-buffered row is visible in the scan result
        batch = results["pdt_scan"].batch
        assert 77 in list(batch.columns["r_regionkey"])

    def test_hot_path_view_covers_all_work(self, mix_cluster):
        cluster, _ = mix_cluster
        paths = cluster.profiler.hot_paths()
        assert paths
        total_share = sum(entry[6] for entry in paths)
        assert total_share == pytest.approx(1.0, abs=1e-9)
        names = {(op, name) for op, name, *_ in paths}
        assert ("MScan", "scan.read_block") in names
        assert ("MScan", "(self)") in names  # the pulls' own seconds
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
        QUERIES[number](lambda plan: cluster.query(plan).batch)
    # the counts of vh$operator_stats and vh$hot_paths: everything but
    # the wall-seconds tail (and the rows/sec and share derived from it),
    # hot paths in a fixed order since they rank by wall
    det_rows = [row[:7] for row in cluster.profiler.rows()]
    det_paths = sorted(row[:5] for row in cluster.profiler.hot_paths())
    log = [(r.fingerprint, r.rows)
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

        QUERIES[1](runner)
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
        """Operators and kernels sit in the query's span tree at the
        seconds their frames recorded: kernels are leaves, a span lasts
        as long as its subtree spent, children tile it from its start."""
        cluster, _ = queried
        captured = {}

        def runner(plan):
            captured["result"] = cluster.query(plan, trace=True)
            return captured["result"].batch

        QUERIES[1](runner)
        result = captured["result"]
        execute = result.trace.find("execute")
        root = result.profiles[0]
        graft = next(s for s in execute.children if s.name == root.label)
        schedule = next(s for s in execute.children if s.name == "schedule")
        assert graft.wall_start == schedule.wall_start
        n_kernels = 0

        def check(span, node):
            nonlocal n_kernels
            assert span.name == node.label
            assert span.attrs["tuples_out"] == node.tuples_out
            # the node's children first, then its kernels, as leaves
            below = span.children[:len(node.children)]
            leaves = span.children[len(node.children):]
            assert ([s.name for s in leaves]
                    == [f"kernel:{name}" for name in sorted(node.kernels)])
            for leaf in leaves:
                stat = node.kernels[leaf.name[len("kernel:"):]]
                assert not leaf.children
                assert leaf.attrs == {"calls": stat.calls,
                                      "rows": stat.rows, "bytes": stat.bytes}
                assert leaf.wall_seconds == pytest.approx(
                    stat.seconds, abs=1e-9)
            n_kernels += len(leaves)
            # children tile the span from its start; what is left at
            # its end is what the operator's own pulls took
            cursor = span.wall_start
            for child in span.children:
                assert child.wall_start == pytest.approx(cursor, abs=1e-9)
                cursor = child.wall_end
            assert span.wall_end - cursor == pytest.approx(
                node.own_seconds, abs=1e-9)
            for child_span, child_node in zip(below, node.children):
                check(child_span, child_node)

        check(graft, root)
        assert n_kernels
        total = sum(n.time for n in result.plan_profiles.values())
        assert graft.wall_seconds == pytest.approx(total, rel=1e-6)
        events = result.trace.chrome_trace()["traceEvents"]
        assert len(events) == len(list(result.trace.iter_spans()))
        assert all(e["ph"] == "X" for e in events)

    def test_operator_stats_system_table(self, queried):
        cluster, _ = queried
        out = execute_sql(
            cluster, "select operator, rows_out, batches, wall_s, "
            "rows_per_s from vh$operator_stats")
        assert out.n > 0
        kinds = list(out.columns["operator"])
        assert "MScan" in kinds and "Aggr" in kinds
        idx = kinds.index("MScan")
        assert int(out.columns["rows_out"][idx]) > 0
        assert float(out.columns["wall_s"][idx]) > 0

    def test_hot_paths_system_table(self, queried):
        cluster, _ = queried
        out = execute_sql(
            cluster, "select operator, kernel, calls, wall_s, share "
            "from vh$hot_paths")
        assert out.n > 0
        kernels = set(out.columns["kernel"])
        assert "scan.read_block" in kernels
        walls = [float(s) for s in out.columns["wall_s"]]
        assert walls == sorted(walls, reverse=True)

    def test_query_log_names_dominant_operator(self, queried):
        cluster, _ = queried
        out = execute_sql(
            cluster, "select state, dominant, dominant_share "
            "from vh$queries")
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


def test_the_registry_is_the_profilers_store():
    registry = MetricsRegistry()
    profiler = ContinuousProfiler(registry)
    scan = ProfileNode("MScan[t]", kind="MScan", batches=4, tuples_out=4000,
                       own_seconds=0.05, stream_times=[0.1, 0.2])
    scan.kernels["decode.pfor"] = KernelStat(
        calls=4, seconds=0.1, rows=4000, bytes=640)
    root = ProfileNode("Aggr[g]", kind="Aggr", batches=1, tuples_out=2,
                       children=[scan], net_bytes=9)

    profiler.observe_query(_Profiled(root))
    profiler.observe_query(_Profiled(root))
    aggr, mscan = profiler.rows()
    assert mscan[:7] == ("MScan", 2, 4, 0, 8000, 8, 0)
    assert aggr[:7] == ("Aggr", 2, 2, 8000, 4, 2, 18)
    assert mscan[7] == pytest.approx(0.3)  # pulls' own + kernels
    assert profiler.kernels()["MScan"]["decode.pfor"].calls == 8
    # every cell of both views is a registry series, nothing else
    value = registry.value
    assert mscan[1] == value("operator_queries_total", operator="MScan")
    assert mscan[2] == value("operator_instances_total", operator="MScan")
    assert aggr[6] == value("operator_net_bytes_total", operator="Aggr")
    assert mscan[7] == value("operator_wall_seconds_total", operator="MScan")
    paths = {(op, name): (calls, wall) for op, name, calls, _rows,
             _bytes, wall, _share in profiler.hot_paths()}
    assert paths["MScan", "decode.pfor"] == (8, value(
        "kernel_wall_seconds_total", operator="MScan", kernel="decode.pfor"))
    assert paths["MScan", "(self)"] == (8, pytest.approx(0.1))
    assert paths["MScan", "(self)"][1] == value(
        "operator_own_seconds_total", operator="MScan")
    registry.reset("operator_")
    assert profiler.rows() == [] and profiler.hot_paths() == []
    registry.reset("kernel_")
    assert profiler.kernels() == {}


# -------------------------------------------- regression attribution gate


def test_attribute_regressions_ranks_kernel_deltas():
    old = {
        "kernels.MScan.decode.pfor.calls": 10,
        "kernels.MScan.decode.pfor.bytes": 1000,
        "kernels.MScan.decode.pfor.wall_s": 1.0,
        "kernels.Aggr.aggr.group.rows": 110,
        "operators.MScan.rows_out": 290,
        "queries.q1.rows": 4,
    }
    new = {
        "kernels.MScan.decode.pfor.calls": 20,       # x2 <- top culprit
        "kernels.MScan.decode.pfor.bytes": 1500,     # x1.5
        "kernels.MScan.decode.pfor.wall_s": 9.0,     # wall: exempt
        "kernels.Aggr.aggr.group.rows": 100,         # improved: skipped
        "operators.MScan.rows_out": 300,             # x1.03
        "queries.q1.rows": 5,                        # not an attr prefix
    }
    culprits = attribute_regressions(new, old)
    keys = [c["key"] for c in culprits]
    assert keys == ["kernels.MScan.decode.pfor.calls",
                    "kernels.MScan.decode.pfor.bytes",
                    "operators.MScan.rows_out"]
    assert culprits[0]["ratio"] == pytest.approx(2.0)
    assert attribute_regressions({}, {}) == []


def test_synthetic_slowdown_names_the_exact_kernel(
        tpch_data, tmp_path, monkeypatch):
    """Acceptance: injecting a slowdown into the scan decode kernel makes
    the trajectory gate fail on that kernel's counts AND its attribution
    name that kernel first."""

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
    # only the decode kernels' counts moved, so only they trip the gate
    assert regressed and all(m.startswith("kernels.MScan.decode.")
                             for m in regressed)
    culprits = [c["key"] for c in last["attribution"]["hotpath"]]
    assert culprits, "gate failed without attributing a culprit"
    # the injected kernel is the *top* named culprit, roughly doubled
    assert culprits[0].startswith("kernels.MScan.decode.")
    top = last["attribution"]["hotpath"][0]
    assert top["ratio"] == pytest.approx(2.0, rel=0.2)
