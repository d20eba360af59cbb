"""The observability layer: metrics registry, tracing, reset shims."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.obs import MetricsRegistry, SimClock, Tracer
from repro.sql import execute_sql
from repro.tpch.queries import q1


# ---------------------------------------------------------------- families


class TestCounter:
    def test_label_keyed_series(self):
        reg = MetricsRegistry()
        c = reg.counter("reads_total", "reads", labels=("node", "mode"))
        c.inc(10, node="n1", mode="local")
        c.inc(5, node="n1", mode="remote")
        c.inc(2, node="n2", mode="local")
        assert c.get(node="n1", mode="local") == 10
        assert c.get(node="n1", mode="remote") == 5
        assert c.get(node="n3", mode="local") == 0  # absent series reads 0
        assert c.total() == 17

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labels=("node",))
        with pytest.raises(ReproError):
            c.inc(1, nod="n1")
        with pytest.raises(ReproError):
            c.inc(1)  # missing the label entirely

    @pytest.mark.parametrize("labels, got", [
        ({"node": "n1"}, "('node',)"),  # missing
        ({"node": "n1", "mode": "m", "rack": "r"},
         "('mode', 'node', 'rack')"),  # extra
        ({"node": "n1", "mod": "m"}, "('mod', 'node')"),  # renamed
    ])
    def test_a_missing_extra_or_renamed_label_names_both_sets(self, labels,
                                                              got):
        c = MetricsRegistry().counter("x_total", labels=("node", "mode"))
        message = (f"metric x_total takes labels ('node', 'mode'), "
                   f"got {got}")
        with pytest.raises(ReproError) as raised:
            c.inc(1, **labels)
        assert str(raised.value) == message
        assert c.total() == 0

    def test_cannot_decrease(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("node",))
        b = reg.counter("x_total", labels=("node",))
        assert a is b

    def test_kind_and_label_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("node",))
        with pytest.raises(ReproError):
            reg.gauge("x_total", labels=("node",))
        with pytest.raises(ReproError):
            reg.counter("x_total", labels=("node", "mode"))


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g", labels=("node",))
        g.set(7, node="n1")
        g.inc(3, node="n1")
        g.dec(5, node="n1")
        assert g.get(node="n1") == 5

    def test_set_max_keeps_high_water_mark(self):
        g = MetricsRegistry().gauge("peak")
        g.set_max(10)
        g.set_max(4)
        g.set_max(12)
        assert g.get() == 12

    def test_sticky_gauges_survive_reset(self):
        reg = MetricsRegistry()
        live = reg.gauge("hdfs_bytes_stored", sticky=True)
        stat = reg.gauge("hdfs_peak", sticky=False)
        cnt = reg.counter("hdfs_reads_total")
        live.set(100)
        stat.set(50)
        cnt.inc(3)
        reg.reset("hdfs_")
        assert live.get() == 100  # live state: survives
        assert stat.get() == 0  # statistic: cleared
        assert cnt.get() == 0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram(
            "lat_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        data = h.get()
        assert data["count"] == 5
        assert data["sum"] == pytest.approx(56.05)
        assert data["buckets"] == {0.1: 1, 1.0: 3, 10.0: 4}

    def test_boundary_lands_in_its_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)  # le=1.0 is inclusive, Prometheus-style
        assert h.get()["buckets"][1.0] == 1


class TestHistogramQuantile:
    def test_interpolates_inside_bucket(self):
        from repro.obs import quantile_from_buckets
        # 10 observations spread evenly into (0,1]: the median rank (5)
        # sits at the end of the first bucket
        assert quantile_from_buckets(
            (1.0, 2.0), (5, 5), 10, 0.5) == pytest.approx(1.0)
        # rank 7.5 is halfway through the (1,2] bucket -> 1.5
        assert quantile_from_buckets(
            (1.0, 2.0), (5, 5), 10, 0.75) == pytest.approx(1.5)

    def test_family_quantile_matches_helper(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        # rank 2 of 4 lands at the end of the (0.1, 1.0] bucket's first
        # observation: interpolated inside (0.1, 1.0]
        q50 = h.quantile(0.5)
        assert 0.1 < q50 <= 1.0
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_overflow_collapses_to_top_bound(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)  # +Inf bucket
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_empty_histogram_is_zero(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0,))
        assert h.quantile(0.5) == 0.0

    def test_labelled_series_and_aggregate(self):
        h = MetricsRegistry().histogram(
            "lat", labels=("node",), buckets=(1.0, 2.0, 4.0))
        for _ in range(8):
            h.observe(0.5, node="n1")
        for _ in range(8):
            h.observe(3.0, node="n2")
        assert h.quantile(0.5, node="n1") <= 1.0
        assert h.quantile(0.5, node="n2") > 2.0
        # bare call on a labelled family pools every series
        pooled = h.quantile(0.5)
        assert 1.0 <= pooled <= 4.0

    def test_monotone_in_q(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.5, 1.0, 2.0, 4.0))
        for v in (0.1, 0.6, 0.7, 1.5, 3.0, 9.0):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)


class TestCounterAssignment:
    def test_counters_have_no_public_set(self):
        c = MetricsRegistry().counter("x_total")
        assert not hasattr(c, "set")

    def test_attribute_views_are_read_only(self):
        # counts live in the registry only: a counter has no assignment
        # path, and the per-object views over its series have no setter
        from repro.hdfs import HdfsCluster
        from repro.storage.buffer import BufferPool
        assert not hasattr(MetricsRegistry().counter("x_total"), "_assign")
        hdfs = HdfsCluster(["n1", "n2"])
        hdfs.write_file("/f", b"x" * 10, writer="n1")
        pool = BufferPool(hdfs, node="n1")
        pool.read("/f", 0, 10, reader="n1")
        node = hdfs.nodes["n1"]
        assert (node.bytes_written, node.bytes_read_local, pool.misses) \
            == (10, 10, 1)
        for obj, attr in ((node, "bytes_read_local"), (node, "bytes_stored"),
                          (pool, "hits")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 0)


class TestExpositionFormat:
    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "weird", labels=("path",))
        c.inc(1, path='a"b\\c\nd')
        text = reg.render()
        assert 'x_total{path="a\\"b\\\\c\\nd"} 1' in text
        # the rendered exposition must stay line-parseable
        for line in text.splitlines():
            assert "\n" not in line

    def test_help_newlines_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "line one\nline two").inc()
        text = reg.render()
        assert "# HELP x_total line one\\nline two" in text

    def test_help_type_ordering(self):
        """Every family renders exactly one HELP then one TYPE line,
        immediately followed by its samples, families sorted by name."""
        reg = MetricsRegistry()
        reg.counter("b_total", "b help").inc(2)
        reg.gauge("a_gauge", "a help").set(1)
        reg.histogram("c_seconds", "c help", buckets=(1.0,)).observe(0.5)
        lines = reg.render().splitlines()
        families = []
        i = 0
        while i < len(lines):
            assert lines[i].startswith("# HELP "), lines[i]
            name = lines[i].split()[2]
            assert lines[i + 1].startswith(f"# TYPE {name} "), lines[i + 1]
            i += 2
            samples = 0
            while i < len(lines) and not lines[i].startswith("#"):
                assert lines[i].split("{")[0].startswith(name)
                samples += 1
                i += 1
            assert samples > 0, f"family {name} rendered no samples"
            families.append(name)
        assert families == sorted(families) == [
            "a_gauge", "b_total", "c_seconds"]


class TestRegistry:
    def test_snapshot_is_isolated(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labels=("node",))
        c.inc(5, node="n1")
        snap = reg.snapshot()
        c.inc(95, node="n1")
        assert snap["x_total"][("n1",)] == 5
        assert reg.snapshot()["x_total"][("n1",)] == 100

    def test_value_convenience(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("node",)).inc(4, node="n1")
        assert reg.value("x_total", node="n1") == 4
        assert reg.value("missing_total") == 0.0

    def test_render_golden(self):
        reg = MetricsRegistry()
        c = reg.counter("hdfs_read_bytes_total", "Bytes read",
                        labels=("node", "mode"))
        c.inc(2048, node="n1", mode="local")
        c.inc(64, node="n2", mode="remote")
        reg.gauge("buffer_used_bytes", "Cached bytes").set(1.5)
        h = reg.histogram("q_seconds", "Query latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.3)
        assert reg.render() == (
            "# HELP buffer_used_bytes Cached bytes\n"
            "# TYPE buffer_used_bytes gauge\n"
            "buffer_used_bytes 1.5\n"
            "# HELP hdfs_read_bytes_total Bytes read\n"
            "# TYPE hdfs_read_bytes_total counter\n"
            'hdfs_read_bytes_total{node="n1",mode="local"} 2048\n'
            'hdfs_read_bytes_total{node="n2",mode="remote"} 64\n'
            "# HELP q_seconds Query latency\n"
            "# TYPE q_seconds histogram\n"
            'q_seconds_bucket{le="0.1"} 1\n'
            'q_seconds_bucket{le="1"} 2\n'
            'q_seconds_bucket{le="+Inf"} 2\n'
            "q_seconds_sum 0.35\n"
            "q_seconds_count 2\n"
        )

    def test_render_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("hdfs_x_total").inc()
        reg.counter("net_y_total").inc()
        text = reg.render(prefixes=("net_",))
        assert "net_y_total 1" in text
        assert "hdfs_x_total" not in text


# ------------------------------------------------------------------ tracer


class TestTracer:
    def test_nesting_and_root_publication(self):
        t = Tracer()
        with t.span("query") as root:
            with t.span("rewrite"):
                pass
            with t.span("execute", mode="streaming"):
                with t.span("schedule"):
                    pass
        assert t.last_trace is root
        assert [c.name for c in root.children] == ["rewrite", "execute"]
        ex = root.find("execute")
        assert ex.attrs["mode"] == "streaming"
        assert [c.name for c in ex.children] == ["schedule"]

    def test_sim_clock_attribution(self):
        clock = SimClock()
        t = Tracer(sim_clock=clock)
        with t.span("outer"):
            with t.span("busy"):
                clock.advance(2.5)
            with t.span("idle"):
                pass
        root = t.last_trace
        assert root.sim_seconds == pytest.approx(2.5)
        assert root.find("busy").sim_seconds == pytest.approx(2.5)
        assert root.find("idle").sim_seconds == 0.0

    def test_chrome_trace_export(self):
        t = Tracer()
        with t.span("query"):
            with t.span("execute"):
                pass
        doc = json.loads(t.last_trace.chrome_trace_json())
        names = [e["name"] for e in doc["traceEvents"]]
        assert names == ["query", "execute"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["traceEvents"][0]["ts"] == 0


# ----------------------------------------------------- cluster integration


def _load_one_table(cluster, n_rows=256):
    from repro.common.types import FLOAT64, INT64
    from repro.storage import Column, TableSchema

    cluster.create_table(TableSchema(
        "t", [Column("k", INT64), Column("v", FLOAT64)],
        partition_key=("k",), n_partitions=4,
    ))
    cluster.bulk_load("t", {
        "k": np.arange(n_rows, dtype=np.int64),
        "v": np.ones(n_rows),
    })


def _sum_plan():
    from repro.engine.expressions import Col
    from repro.mpp.logical import LAggr, LScan

    return LAggr(LScan("t", ["v"]), [], [("s", "sum", Col("v"))])


class TestClusterMetrics:

    def test_metrics_returns_shared_registry(self, cluster):
        assert cluster.metrics() is cluster.registry
        assert cluster.hdfs.registry is cluster.registry
        assert cluster.mpi.registry is cluster.registry
        assert cluster.rm.registry is cluster.registry

    def test_legacy_views_delegate_to_registry(self, cluster):
        _load_one_table(cluster)
        node = next(iter(cluster.hdfs.nodes.values()))
        assert node.bytes_written == cluster.registry.value(
            "hdfs_written_bytes_total", node=node.name
        )
        total_stored = sum(n.bytes_stored
                           for n in cluster.hdfs.nodes.values())
        assert total_stored == sum(
            cluster.registry.get("hdfs_bytes_stored").snapshot().values()
        )

    def test_registry_reset_by_prefix(self, cluster):
        _load_one_table(cluster)
        cluster.query(_sum_plan())

        stored = sum(n.bytes_stored for n in cluster.hdfs.nodes.values())
        assert stored > 0
        reg = cluster.registry
        assert reg.get("net_bytes_total").total() > 0
        reg.reset("hdfs_")
        assert reg.get("net_bytes_total").total() > 0  # other prefixes stay
        reg.reset("net_")
        reg.reset("buffer_")
        assert reg.counter("hdfs_read_bytes_total",
                           labels=("node", "mode")).total() == 0
        assert reg.counter("net_bytes_total",
                           labels=("src", "dst")).total() == 0
        for pool in cluster._pools.values():
            assert pool.hits == 0 and pool.misses == 0
        # sticky live state survives the reset
        assert sum(n.bytes_stored
                   for n in cluster.hdfs.nodes.values()) == stored
        assert dict(cluster.mpi.bytes_by_link) == {}

        # the per-node attribute views read the same series
        node = next(iter(cluster.hdfs.nodes.values()))
        reg.get("hdfs_read_bytes_total").inc(
            10, node=node.name, mode="short_circuit")
        assert node.bytes_read_local == 10
        reg.reset("hdfs_read")
        assert node.bytes_read_local == 0

    def test_snapshot_isolation_across_queries(self, cluster):
        _load_one_table(cluster)
        plan = _sum_plan()
        cluster.query(plan)
        before = cluster.metrics().snapshot()
        cluster.query(plan)
        after = cluster.metrics().snapshot()
        q = "executor_queries_total"
        assert after[q][()] == before[q][()] + 1
        # the first snapshot was not mutated by the second query
        assert before[q][()] == after[q][()] - 1


class TestQueryTrace:
    def test_q1_trace_covers_lifecycle(self, tpch_cluster):
        captured = {}

        def run(plan):
            res = tpch_cluster.query(plan, trace=True)
            captured["trace"] = res.trace
            return res.batch

        q1(run)
        root = captured["trace"]
        assert root is not None and root.name == "query"
        stages = [c.name for c in root.children]
        assert stages == ["rewrite", "assignment", "execute", "commit"]
        assert root.wall_seconds > 0
        assert root.sim_seconds > 0  # charged stream time reached the trace

        # span nesting mirrors the physical operator tree of Q1:
        # final Sort over a union exchange over the partial aggregation
        ex = root.find("execute")
        assert {c.name for c in ex.children} >= {
            "build", "schedule", "exchange.flush",
        }
        sort = next(c for c in ex.children if c.name.startswith("Sort"))
        union_recv = sort.children[0]
        assert union_recv.name == "DXchgUnion.recv"
        union_send = union_recv.children[0]
        assert union_send.name == "DXchgUnion.send"
        assert union_send.attrs["streams"] > 1
        path = []
        node = union_send
        # an operator's span holds its children first, its kernels after
        while not node.children[0].name.startswith("kernel:"):
            node = node.children[0]
            path.append(re.sub(r"\[.*?\]", "", node.name))
        assert path == ["Project", "Aggr", "DXchgHashSplit.recv",
                        "DXchgHashSplit.send", "Aggr", "Project",
                        "Select", "MScan"]
        scan = node
        assert scan.attrs["tuples_out"] > 0
        assert "kernel:scan.read_block" in {c.name for c in scan.children}

    def test_untraced_query_has_no_trace(self, tpch_cluster):
        res = tpch_cluster.query(_q1_plan())
        assert res.trace is None

    def test_only_a_query_with_a_reader_builds_spans(self, tpch_cluster):
        """A plain query builds no span tree and leaves ``last_trace``
        alone; ``trace=True`` and an enclosing tracer span are readers."""
        tracer = tpch_cluster.tracer
        execute_sql(tpch_cluster, "SELECT count(*) AS n FROM region")
        sql_root = tracer.last_trace
        assert sql_root.name == "sql"
        tpch_cluster.query(_q1_plan())
        assert tracer.last_trace is sql_root
        traced = tpch_cluster.query(_q1_plan(), trace=True)
        assert tracer.last_trace is traced.trace
        with tracer.span("outer") as outer:
            tpch_cluster.query(_q1_plan())
        assert [c.name for c in outer.children] == ["query"]
        assert tracer.last_trace is outer

    def test_exchange_bytes_reconcile_with_registry(self, tpch_cluster):
        reg = tpch_cluster.metrics()
        reg.reset("net_")
        reg.reset("exchange_")
        res = tpch_cluster.query(_q1_plan())
        wire = sum(s["bytes"] - s["local_bytes"] for s in res.exchanges)
        local = sum(s["local_bytes"] for s in res.exchanges)
        net = reg.counter("net_bytes_total", labels=("src", "dst"))
        assert net.total() == wire
        assert reg.value("net_local_bytes_total") == local
        assert reg.counter("exchange_bytes_total",
                           labels=("exchange",)).total() == sum(
            s["bytes"] for s in res.exchanges
        )

    def test_sql_trace_includes_parse_and_bind(self, tpch_cluster):
        execute_sql(tpch_cluster,
                    "SELECT count(*) AS n FROM region")
        root = tpch_cluster.tracer.last_trace
        assert root.name == "sql"
        names = [c.name for c in root.children]
        assert names == ["parse", "bind", "query"]
        assert root.find("execute") is not None


def _q1_plan():
    """Build Q1's logical plan without executing it."""
    captured = {}
    q1(lambda plan: captured.setdefault("plan", plan))
    return captured["plan"]


class TestDmlTrace:
    def test_commit_span_records_two_phase(self, cluster):
        _load_one_table(cluster, n_rows=16)
        commits0 = cluster.txn.commits
        execute_sql(cluster, "INSERT INTO t (k, v) VALUES (99, 2.0)")
        assert cluster.txn.commits == commits0 + 1
        reg = cluster.metrics()
        assert reg.value("txn_outcomes_total", outcome="commit") >= 1
        assert reg.value("txn_prepare_votes_total") >= 1
        assert reg.counter("wal_appends_total",
                           labels=("kind",)).total() >= 1
