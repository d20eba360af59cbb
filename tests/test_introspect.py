"""Queryable introspection: system tables, EXPLAIN ANALYZE, event log."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.types import INT64, STRING, date_to_days
from repro.mpp.logical import LScan, LSort
from repro.obs.events import ClusterEventLog
from repro.obs.trace import SimClock
from repro.sql.binder import execute_sql
from repro.storage.schema import Column, TableSchema
from repro.tpch import generate_tpch, tpch_schemas

Q1_SQL = """
select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
       avg(l_quantity) as avg_qty,
       avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc,
       count(*) as count_order
from lineitem
where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus
"""


def _sql_lines(batch):
    return [str(v) for v in batch.columns["plan"]]


def _small_cluster(n_nodes: int = 4) -> VectorHCluster:
    return VectorHCluster(n_nodes=n_nodes, config=Config().scaled_for_tests())


def _load_t(cluster, n_rows: int = 16000, n_partitions: int = 4):
    schema = TableSchema(
        "t", [Column("a", INT64), Column("b", INT64)],
        partition_key=("a",), n_partitions=n_partitions,
        clustered_on=("a",),
    )
    cluster.create_table(schema)
    cluster.bulk_load("t", {
        "a": np.arange(n_rows, dtype=np.int64),
        "b": np.arange(n_rows, dtype=np.int64) % 7,
    })
    return schema


@pytest.fixture()
def q1_cluster():
    """Lineitem-only cluster tuned so Q1's shipdate cutoff skips blocks.

    Stock dbgen shipdates never exceed the Q1 cutoff, so the column is
    re-drawn uniformly over 1992..2000 and the table re-clustered on
    l_shipdate: sorted runs give the MinMax index tight per-block ranges
    and the top ~20% of each partition falls entirely past the cutoff.
    """
    config = dataclasses.replace(Config().scaled_for_tests(),
                                 block_size=4096)
    cluster = VectorHCluster(n_nodes=4, config=config)
    data = dict(generate_tpch(scale_factor=0.002, seed=7)["lineitem"])
    rng = np.random.default_rng(7)
    n = len(data["l_orderkey"])
    data["l_shipdate"] = rng.integers(
        date_to_days("1992-01-01"), date_to_days("2000-06-01"), n
    ).astype(np.int64)
    schema = dataclasses.replace(tpch_schemas(n_partitions=4)["lineitem"],
                                 clustered_on=("l_shipdate",),
                                 foreign_keys=[])
    cluster.create_table(schema)
    cluster.bulk_load("lineitem", data)
    return cluster


class TestSystemTables:
    def test_metrics_table_scans_via_sql(self):
        cluster = _small_cluster()
        _load_t(cluster)
        out = execute_sql(cluster, "select * from vh$metrics")
        assert list(out.columns) == ["metric", "kind", "labels", "value"]
        names = {str(v) for v in out.columns["metric"]}
        assert "hdfs_written_bytes_total" in names
        assert "minmax_blocks_scanned_total" not in names  # no scans yet

    def test_metrics_reflect_minmax_counters(self):
        cluster = _small_cluster()
        _load_t(cluster)
        execute_sql(cluster, "select count(*) as n from t where a < 100")
        out = execute_sql(cluster, "select * from vh$metrics")
        rows = {
            (str(out.columns["metric"][i]), str(out.columns["labels"][i])):
            float(out.columns["value"][i]) for i in range(out.n)
        }
        assert rows[("minmax_blocks_skipped_total", "table=t")] > 0
        assert rows[("minmax_blocks_scanned_total", "table=t")] > 0

    def test_partitions_table_matches_responsibility(self):
        cluster = _small_cluster()
        _load_t(cluster, n_partitions=4)
        out = execute_sql(
            cluster, "select partition, responsible, rows, local "
                     "from vh$partitions")
        assert out.n == 4
        assert int(out.columns["rows"].sum()) == 16000
        for i in range(out.n):
            pid = int(out.columns["partition"][i])
            assert str(out.columns["responsible"][i]) == \
                cluster.responsible("t", pid)
            assert int(out.columns["local"][i]) == 1

    def test_system_table_joins_base_table(self):
        cluster = _small_cluster()
        _load_t(cluster)
        dim = TableSchema("dim", [Column("tname", STRING),
                                  Column("tag", INT64)])
        cluster.create_table(dim)
        arr = np.empty(1, dtype=object)
        arr[:] = ["t"]
        cluster.bulk_load("dim", {"tname": arr,
                                  "tag": np.array([7], dtype=np.int64)})
        out = execute_sql(
            cluster, "select tname, count(*) as n, sum(rows) as r "
                     "from vh$partitions join dim on table = tname "
                     "group by tname")
        assert out.n == 1
        assert str(out.columns["tname"][0]) == "t"
        assert int(out.columns["n"][0]) == 4
        assert int(out.columns["r"][0]) == 16000

    def test_compression_table_reports_ratios(self):
        cluster = _small_cluster()
        _load_t(cluster)
        out = execute_sql(cluster, "select * from vh$compression")
        assert out.n > 0
        per_store = {}
        for pid in range(4):
            for (col, scheme), agg in \
                    cluster.tables["t"].partitions[pid].compression_stats() \
                    .items():
                bucket = per_store.setdefault((col, scheme),
                                              {"raw": 0, "encoded": 0})
                bucket["raw"] += agg["raw_bytes"]
                bucket["encoded"] += agg["encoded_bytes"]
        for i in range(out.n):
            key = (str(out.columns["column"][i]),
                   str(out.columns["scheme"][i]))
            assert int(out.columns["raw_bytes"][i]) == per_store[key]["raw"]
            assert int(out.columns["encoded_bytes"][i]) == \
                per_store[key]["encoded"]
            assert float(out.columns["ratio"][i]) == pytest.approx(
                per_store[key]["raw"] / per_store[key]["encoded"])

    def test_blocks_table_covers_all_columns(self):
        cluster = _small_cluster()
        _load_t(cluster)
        out = execute_sql(cluster, "select * from vh$blocks")
        assert out.n > 0
        cols = {str(v) for v in out.columns["column"]}
        assert cols == {"a", "b"}
        assert int(out.columns["n_rows"].sum()) == 16000 * 2  # per column
        assert all(str(p).startswith("/") or "/" in str(p)
                   for p in out.columns["path"])

    def test_pdt_table_sees_trans_updates(self):
        cluster = _small_cluster()
        _load_t(cluster)
        execute_sql(cluster, "insert into t values (9001, 3), (9002, 4)")
        out = execute_sql(cluster, "select * from vh$pdt")
        assert out.n == 4
        assert int(out.columns["total_entries"].sum()) == 2

    def test_queries_table_records_statements(self):
        cluster = _small_cluster()
        _load_t(cluster)
        execute_sql(cluster, "select count(*) as n from t")
        out = execute_sql(cluster, "select root, statement from vh$queries")
        stmts = " ".join(str(v) for v in out.columns["statement"])
        assert "select count(*) as n from t" in stmts

    def test_unknown_table_still_errors(self):
        from repro.common.errors import StorageError
        cluster = _small_cluster()
        with pytest.raises(StorageError):
            execute_sql(cluster, "select * from vh$nope")


class TestEventLog:
    def test_event_log_api(self):
        clock = SimClock()
        log = ClusterEventLog(sim_clock=clock)
        clock.advance(1.5)
        log.emit("hdfs", "node_dead", node="node3")
        log.emit("txn", "2pc_commit", txn=1)
        assert len(log) == 2
        assert log.events()[0].sim_time == pytest.approx(1.5)
        assert log.of_kind("node_dead")[0].attrs["node"] == "node3"
        assert log.last().kind == "2pc_commit"
        assert "txn=1" in log.last().detail
        assert [e.seq for e in log.tail(1)] == [1]

    def test_failover_emits_causal_chain(self):
        cluster = _small_cluster()
        _load_t(cluster)
        victim = cluster.responsible("t", 0)
        cluster.fail_node(victim)
        kinds = [(e.source, e.kind) for e in cluster.events]
        assert ("cluster", "node_failed") in kinds
        assert ("hdfs", "node_dead") in kinds
        assert ("hdfs", "rereplication") in kinds
        assert ("cluster", "failover_complete") in kinds
        assert kinds.index(("cluster", "node_failed")) < \
            kinds.index(("cluster", "failover_complete"))
        done = cluster.events.last("failover_complete")
        assert done.attrs["node"] == victim
        assert done.attrs["rereplicated_files"] > 0

    def test_txn_and_ddl_events_reach_sql(self):
        cluster = _small_cluster()
        _load_t(cluster)
        execute_sql(cluster, "insert into t values (9001, 3)")
        out = execute_sql(cluster, "select source, kind from vh$events")
        pairs = {(str(out.columns["source"][i]), str(out.columns["kind"][i]))
                 for i in range(out.n)}
        assert ("cluster", "create_table") in pairs
        assert ("txn", "2pc_commit") in pairs


class TestExplain:
    def test_explain_renders_plan_without_running(self):
        cluster = _small_cluster()
        _load_t(cluster)
        before = cluster.registry.snapshot().get("exchange_bytes_total", {})
        out = execute_sql(
            cluster, "explain select b, count(*) as n from t "
                     "where a < 100 group by b")
        lines = _sql_lines(out)
        assert any("MScan[t]" in line for line in lines)
        assert not any("rows=" in line for line in lines)
        assert not any(line.startswith("-- actuals") for line in lines)
        after = cluster.registry.snapshot().get("exchange_bytes_total", {})
        assert before == after  # nothing executed

    def test_explain_analyze_annotates_operators(self):
        cluster = _small_cluster()
        _load_t(cluster)
        out = execute_sql(
            cluster, "explain analyze select b, count(*) as n from t "
                     "where a < 2000 group by b")
        lines = _sql_lines(out)
        scan = next(line for line in lines if "MScan[t]" in line)
        assert re.search(r"rows=\d+", scan)
        assert re.search(r"minmax=[1-9]\d*/\d+ blocks skipped", scan)
        union = next(line for line in lines if "DXchgUnion" in line)
        assert re.search(r"wire=\d+B/\d+msgs", union)
        assert any(". link " in line and "remote" in line for line in lines)
        assert any(line.startswith("-- scan locality:") for line in lines)


    def test_explain_analyze_is_an_ordinary_admitted_query(self):
        config = dataclasses.replace(Config().scaled_for_tests(),
                                     workload_max_concurrent=1,
                                     workload_deterministic=True)
        cluster = VectorHCluster(n_nodes=4, config=config)
        _load_t(cluster)
        holder = cluster.submit(LSort(LScan("t", ["a", "b"]), ["a"]))
        seen = []

        def watch():
            seen.append((cluster.workload.load()["running"],
                         cluster.workload.queued_ids()))

        cluster.workload.round_hooks.append(watch)
        sql = "explain analyze select b, count(*) as n from t group by b"
        out = execute_sql(cluster, sql)
        assert any("rows=" in line for line in _sql_lines(out))
        # it queued behind the query holding the only slot, then held
        # that slot itself: never two running at once
        explain = holder + 1
        assert seen[0] == (1, [explain])
        assert all(running <= 1 for running, _ in seen)
        admitted = {e.attrs["query"]: e.attrs["wait"]
                    for e in cluster.events.of_kind("query.admitted")}
        assert admitted[holder] == 0 and admitted[explain] > 0
        # and it is logged like any other statement
        logged = execute_sql(
            cluster, "select query, state, statement from vh$queries "
            "where state not in ('queued', 'running')")
        rows = dict(zip(logged.columns["query"].tolist(),
                        logged.columns["statement"].tolist()))
        assert set(rows) == {holder, explain}
        assert rows[explain] == sql


class TestQ1Golden:
    """Golden plan-annotation test for TPC-H Q1 under EXPLAIN ANALYZE."""

    OPERATOR_SEQUENCE = ["Sort", "DXchgUnion", "Project", "Aggr(final)",
                         "DXchgHashSplit", "Aggr(partial)", "Project",
                         "Select", "MScan[lineitem]"]

    def test_q1_plan_annotations_reconcile_with_registry(self, q1_cluster):
        cluster = q1_cluster
        before = cluster.registry.snapshot()
        out = execute_sql(cluster, "explain analyze " + Q1_SQL)
        after = cluster.registry.snapshot()
        lines = _sql_lines(out)

        plan_lines = [line for line in lines
                      if not line.startswith("--")
                      and ". link " not in line]
        heads = [line.strip().split("  <")[0] for line in plan_lines]
        for expected, got in zip(self.OPERATOR_SEQUENCE, heads):
            assert got.startswith(expected), (expected, got)
        assert len(heads) == len(self.OPERATOR_SEQUENCE)

        # every operator carries actuals
        assert all(re.search(r"\[rows=\d+ stream_time=", line)
                   for line in plan_lines)

        # MinMax actuals: nonzero skips, reconciling with the registry diff
        scan = next(line for line in plan_lines if "MScan[lineitem]" in line)
        skipped, total = map(int, re.search(
            r"minmax=(\d+)/(\d+) blocks skipped", scan).groups())
        assert 0 < skipped < total

        def delta(name):
            base = before.get(name, {})
            return {k: v - base.get(k, 0)
                    for k, v in after.get(name, {}).items()}

        skipped_reg = delta("minmax_blocks_skipped_total")[("lineitem",)]
        scanned_reg = delta("minmax_blocks_scanned_total")[("lineitem",)]
        assert skipped == int(skipped_reg)
        assert total == int(skipped_reg + scanned_reg)
        footer = next(line for line in lines
                      if line.startswith("-- minmax[lineitem]"))
        assert f"scanned={int(scanned_reg)}" in footer
        assert f"skipped={int(skipped_reg)}" in footer

        # the scan's exact filter: rows= on the MScan line is what left
        # the scan (the Select above it has nothing left to drop), and
        # filtered= is what stayed behind, reconciling with the registry
        rows_out = {head.split("[")[0].split("(")[0].strip():
                    int(re.search(r"\[rows=(\d+)", line).group(1))
                    for head, line in zip(heads, plan_lines)}
        assert rows_out["MScan"] == rows_out["Select"] > 0
        filtered = int(re.search(r"filtered=(\d+)", scan).group(1))
        assert filtered == int(
            delta("scan_rows_filtered_total")[("lineitem",)]) > 0

        # exchange wire actuals: nonzero, and the per-link breakdown of
        # each exchange adds up to the wire= total on its header line
        wire_totals = [int(m.group(1)) for m in
                       (re.search(r"wire=(\d+)B", line)
                        for line in plan_lines) if m]
        assert len(wire_totals) == 2 and all(w > 0 for w in wire_totals)
        link_sum = sum(int(m.group(1)) for m in
                       (re.search(r": (\d+)B", line)
                        for line in lines if ". link " in line) if m)
        assert link_sum == sum(wire_totals)
        exchange_reg = sum(delta("exchange_bytes_total").values())
        assert int(exchange_reg) == sum(wire_totals)

    def test_q1_analyze_matches_plain_execution(self, q1_cluster):
        from tests.conftest import assert_batches_match
        plain = execute_sql(q1_cluster, Q1_SQL)
        execute_sql(q1_cluster, "explain analyze " + Q1_SQL)
        again = execute_sql(q1_cluster, Q1_SQL)
        assert_batches_match(plain, again)


class TestPlacementAudit:
    def test_audit_flags_drift_after_datanode_death(self):
        cluster = VectorHCluster(
            n_nodes=4,
            config=dataclasses.replace(Config().scaled_for_tests(),
                                       replication=2))
        _load_t(cluster)
        assert cluster.placement.audit() == {"t": 1.0, "overall": 1.0}
        victim = cluster.responsible("t", 0)
        cluster.hdfs.mark_node_dead(victim)  # no failover yet: drift
        audit = cluster.placement.audit()
        assert audit["t"] < 1.0
        drift = cluster.events.last("placement_drift")
        assert drift.attrs["table"] == "t"
        assert drift.attrs["fraction"] < 1.0

    def test_audit_recovers_after_failover(self):
        cluster = VectorHCluster(
            n_nodes=4,
            config=dataclasses.replace(Config().scaled_for_tests(),
                                       replication=2))
        _load_t(cluster)
        cluster.fail_node(cluster.responsible("t", 0))
        assert cluster.placement.audit()["overall"] == 1.0
        report = cluster.locality_report()
        assert report["colocated_fraction"] == 1.0


class TestSelectStar:
    def test_star_expands_base_table_columns(self):
        cluster = _small_cluster()
        _load_t(cluster)
        out = execute_sql(cluster, "select * from t where a < 5 order by a")
        assert list(out.columns) == ["a", "b"]
        assert out.n == 5
