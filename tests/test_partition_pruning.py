"""A WHERE that fixes the partition key by ``=`` reaches one partition.

The scan, the snapshot pin, the DML walk and the senders of the exchange
above the scan touch only the partitions the literals hash to. Every
answer here goes through ``repro.server`` and equals both the unpruned
answer (the same key as a ``BETWEEN``, which the rewriter does not
prune) and the row engine's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CompetitorSystem
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.mpp import plan as P
from repro.mpp.logical import LScan
from repro.mpp.rewriter import ParallelRewriter
from repro.sql import execute_sql
from repro.sql.binder import _SelectBinder
from repro.sql.parser import SqlParser
from repro.tpch import tpch_schemas
from repro.tpch.schema import LOAD_ORDER
from repro.workload.admission import estimate_query_memory

from .conftest import assert_batches_match

ORDER = ("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate "
         "FROM orders WHERE o_orderkey {}")
LINES = ("SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem "
         "WHERE l_orderkey {} ORDER BY l_linenumber")
LOCAL_JOIN = ("SELECT l_linenumber, o_totalprice FROM lineitem "
              "JOIN orders ON l_orderkey = o_orderkey WHERE o_orderkey {}")
SUPPLIER = "SELECT s_suppkey, s_acctbal FROM supplier WHERE s_suppkey {}"


def loaded(tpch_data, n_nodes: int = 4) -> VectorHCluster:
    cluster = VectorHCluster(n_nodes=n_nodes,
                             config=Config().scaled_for_tests())
    schemas = tpch_schemas(n_partitions=8)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


def logical(cluster, sql: str):
    return _SelectBinder(cluster, SqlParser(sql).parse()).plan()


def scan_of(result, table: str) -> P.PScan:
    """The scan of ``table`` in a result's plan, or in a plan."""
    qplan = getattr(result, "qplan", result)
    return next(n for n in qplan.root.walk()
                if isinstance(n, P.PScan) and n.table == table)


def streams(result, table: str) -> int:
    """How many streams ran the scan of ``table``."""
    return len(result.profile_of(scan_of(result, table)).stream_times)


def row_engine(cluster, tables=("orders", "lineitem")) -> CompetitorSystem:
    """The row engine over what bare scans read from ``cluster`` now."""
    system = CompetitorSystem("hive", workers=3, rows_per_group=1024)
    system.load({
        name: cluster.query(LScan(
            name, cluster.table(name).schema.column_names)).batch.columns
        for name in tables})
    return system


def served(cluster, sql: str):
    """``sql`` through the server, past its result cache."""
    frontend = cluster.serve()
    frontend.result_cache.clear()
    return frontend.connect().simple_query(sql)


def agrees(cluster, template: str, key, oracle, answer=None):
    """``answer`` (else the served one) to ``template`` with ``= key``
    equals the unpruned answer and the row engine's; returns it."""
    pruned = template.format(f"= {key}")
    if answer is None:
        answer = served(cluster, pruned)
    assert_batches_match(
        answer, served(cluster, template.format(f"BETWEEN {key} AND {key}")))
    assert_batches_match(answer, oracle.run(logical(cluster, pruned)))
    return answer


def explain(cluster, sql: str) -> str:
    return "\n".join(execute_sql(cluster, "EXPLAIN " + sql).columns["plan"])


class TestReads:
    @pytest.fixture(scope="class")
    def cluster(self, tpch_data):
        return loaded(tpch_data)

    @pytest.fixture(scope="class")
    def oracle(self, cluster):
        return row_engine(cluster, ("orders", "lineitem", "supplier"))

    def test_a_prepared_lookup_rebound_over_50_keys(self, cluster, oracle,
                                                    tpch_data):
        keys = tpch_data["orders"]["o_orderkey"]
        rng = np.random.default_rng(30)
        # 45 keys that exist, and 5 past the largest that do not
        picked = rng.choice(keys, 45, replace=False).tolist() + [
            int(keys.max()) + i for i in range(1, 6)]
        conn = cluster.serve().connect()
        conn.parse("order", ORDER.format("= $1"))
        conn.parse("lines", LINES.format("= $1"))
        found = 0
        for key in picked:
            for name, template in (("order", ORDER), ("lines", LINES)):
                conn.bind(name, (key,), portal="p")
                answer = agrees(cluster, template, key, oracle,
                                conn.execute("p"))
                found += answer.n
            result = cluster.query(logical(cluster, ORDER.format(f"= {key}")))
            assert len(scan_of(result, "orders").partitions) == 1
            assert streams(result, "orders") == 1
        assert found > 45

    def test_a_pruned_plan_says_so_and_an_unpruned_one_does_not(
            self, cluster):
        assert "MScan[orders]  <partitioned on o_orderkey>  partitions[" \
            in explain(cluster, ORDER.format("= 7"))
        assert "partitions[" not in explain(cluster,
                                            ORDER.format("BETWEEN 7 AND 7"))
        result = cluster.query(logical(cluster, ORDER.format("= 7")))
        assert "partitions[" in result.plan_text

    def test_two_keys_for_one_column_answer_empty(self, cluster, oracle):
        sql = ORDER.format("= 1 AND o_orderkey = 2")
        assert served(cluster, sql).n == 0
        assert oracle.run(logical(cluster, sql)).n == 0
        result = cluster.query(logical(cluster, sql))
        assert scan_of(result, "orders").partitions == ()
        assert "partitions[]" in result.plan_text
        assert streams(result, "orders") == 1  # the schema still flows

    def test_a_literal_prunes_only_when_the_key_can_hold_it(
            self, cluster, oracle, tpch_data):
        key = int(tpch_data["orders"]["o_orderkey"][5])
        whole = agrees(cluster, ORDER, f"{key}.0", oracle)
        assert whole.columns["o_orderkey"].tolist() == [key]
        result = cluster.query(logical(cluster, ORDER.format(f"= {key}.0")))
        assert len(scan_of(result, "orders").partitions) == 1
        # half a key, and a key past int64
        for where in (f"= {key}.5", f"= {2 ** 70}"):
            assert served(cluster, ORDER.format(where)).n == 0
            result = cluster.query(logical(cluster, ORDER.format(where)))
            assert scan_of(result, "orders").partitions is None
            assert streams(result, "orders") == len(cluster.workers)

    def test_a_local_join_pruned_on_one_side_keeps_every_stream(
            self, cluster, oracle, tpch_data):
        key = int(tpch_data["orders"]["o_orderkey"][11])
        answer = agrees(cluster, LOCAL_JOIN, key, oracle)
        assert answer.n == int((tpch_data["lineitem"]["l_orderkey"]
                                == key).sum())
        result = cluster.query(logical(cluster, LOCAL_JOIN.format(f"= {key}")))
        assert not any(isinstance(n, P.DXHashSplit)
                       for n in result.qplan.root.walk())  # local join
        assert len(scan_of(result, "orders").partitions) == 1
        assert scan_of(result, "lineitem").partitions is None
        assert streams(result, "lineitem") == len(cluster.workers)

    def test_estimates_and_the_trace_count_reached_partitions_only(
            self, cluster, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(cluster, "feedback", None)  # static stats only
            plans = {where: ParallelRewriter(cluster).plan(
                         logical(cluster, ORDER.format(where)))
                     for where in ("= 7", "BETWEEN 7 AND 7")}
        pruned, whole = plans.values()
        (pid,) = scan_of(pruned, "orders").partitions
        stored = cluster.table("orders")
        assert pruned.annotations[scan_of(pruned, "orders")].rows == \
            stored.partitions[pid].n_stable * 0.3
        charged = estimate_query_memory(cluster, pruned)
        unpruned = estimate_query_memory(cluster, whole)
        owner = cluster.responsible("orders", pid)
        assert all(charged[w] < unpruned[w]
                   for w in cluster.workers if w != owner)
        assert charged[owner] <= unpruned[owner]
        trace = cluster.query(pruned, trace=True).trace
        (assignment,) = [s for s in trace.children if s.name == "assignment"]
        assert assignment.attrs["partitions"] == 1

    def test_a_replicated_table_is_never_pruned(self, cluster, oracle):
        assert agrees(cluster, SUPPLIER, 3, oracle).n == 1
        result = cluster.query(logical(cluster, SUPPLIER.format("= 3")))
        assert scan_of(result, "supplier").partitions is None
        assert "partitions[" not in result.plan_text


class TestInListsAndNegativeLiterals:
    """``k IN (a, b)`` and ``k = -5`` are triples: they prune like ``=``.
    The unpruned form of an ``IN`` is the same keys ``OR``-ed (no
    triple)."""

    @pytest.fixture(scope="class")
    def cluster(self, tpch_data):
        cluster = loaded(tpch_data)
        orders = tpch_data["orders"]
        for key in (-5, -1):
            row = {c: v[:1].copy() for c, v in orders.items()}
            row["o_orderkey"][:] = key
            cluster.insert("orders", row, force_pdt=True)
        return cluster

    @pytest.fixture(scope="class")
    def oracle(self, cluster):
        return row_engine(cluster, ("orders",))

    def pids(self, cluster, *keys):
        stored = cluster.table("orders")
        return tuple(sorted({stored.reached_partitions(
            [("o_orderkey", "=", k)])[0] for k in keys}))

    def test_an_in_list_reaches_the_partitions_of_its_keys(
            self, cluster, oracle, tpch_data):
        keys = tpch_data["orders"]["o_orderkey"]
        rng = np.random.default_rng(33)
        conn = cluster.serve().connect()
        conn.parse("two", ORDER.format("IN ($1, $2)"))
        for a, b in rng.choice(keys, (12, 2)).tolist():
            sql = ORDER.format(f"IN ({a}, {b})")
            answer = served(cluster, sql)
            assert sorted(answer.columns["o_orderkey"].tolist()) == sorted(
                {a, b})
            assert_batches_match(answer, served(cluster, ORDER.format(
                f"= {a} OR o_orderkey = {b}")))
            assert_batches_match(answer, oracle.run(logical(cluster, sql)))
            result = cluster.query(logical(cluster, sql))
            reached = scan_of(result, "orders").partitions
            assert len(reached) <= 2 and reached == self.pids(cluster, a, b)
            assert f"partitions[{','.join(map(str, reached))}]" \
                in result.plan_text
            conn.bind("two", (a, b))
            assert_batches_match(conn.execute(), answer)

    def test_a_prepared_in_list_prunes_once_bound(self, cluster, monkeypatch,
                                                  tpch_data):
        plans = []
        prepare = cluster.executor.prepare
        monkeypatch.setattr(cluster.executor, "prepare",
                            lambda qplan, *a, **k: plans.append(qplan)
                            or prepare(qplan, *a, **k))
        a, b = tpch_data["orders"]["o_orderkey"][[4, 40]].tolist()
        conn = cluster.serve().connect()
        conn.parse("two", ORDER.format("IN ($1, $2)"))
        conn.bind("two", (a, b))
        assert conn.execute().n == 2
        assert scan_of(plans[-1], "orders").partitions == self.pids(
            cluster, a, b)

    def test_a_negative_key_is_a_literal_and_prunes(self, cluster, oracle):
        sql = ORDER.format("= -5")
        answer = served(cluster, sql)
        assert answer.columns["o_orderkey"].tolist() == [-5]
        assert_batches_match(answer, oracle.run(logical(cluster, sql)))
        scan = scan_of(cluster.query(logical(cluster, sql)), "orders")
        assert scan.skip_predicates == [("o_orderkey", "=", -5)]
        assert scan.partitions == self.pids(cluster, -5)

    def test_negative_between_bounds_bind(self, cluster):
        between = served(cluster, ORDER.format("BETWEEN -5 AND 2"))
        assert sorted(between.columns["o_orderkey"].tolist()) == [
            -5, -1, 1, 2]

    def test_negative_in_list_values_bind(self, cluster, oracle):
        listed = ORDER.format("IN (-1, 2)")
        answer = served(cluster, listed)
        assert sorted(answer.columns["o_orderkey"].tolist()) == [-1, 2]
        assert_batches_match(answer, oracle.run(logical(cluster, listed)))
        assert scan_of(cluster.query(logical(cluster, listed)),
                       "orders").partitions == self.pids(cluster, -1, 2)


def blocks_seen(cluster, table: str) -> float:
    """Blocks predicated scans of ``table`` read or MinMax skipped."""
    return sum(cluster.registry.value(name, table=table) for name in (
        "minmax_blocks_scanned_total", "minmax_blocks_skipped_total"))


class TestWrites:
    def test_pdt_rows_are_found_and_pdt_deletes_are_gone(self, tpch_data):
        cluster = loaded(tpch_data)
        orders = tpch_data["orders"]
        new = int(orders["o_orderkey"].max()) + 1
        row = {c: v[:1].copy() for c, v in orders.items()}
        row["o_orderkey"][:] = new
        cluster.insert("orders", row, force_pdt=True)
        gone = int(orders["o_orderkey"][3])
        execute_sql(cluster, f"DELETE FROM orders WHERE o_orderkey = {gone}")
        execute_sql(cluster, f"DELETE FROM lineitem WHERE l_orderkey = {gone}")
        for table in ("orders", "lineitem"):  # nothing propagated
            assert any(s.total_entries() for s in cluster.table(table).pdt)
        oracle = row_engine(cluster)
        assert agrees(cluster, ORDER, new, oracle).columns[
            "o_orderkey"].tolist() == [new]
        assert agrees(cluster, ORDER, gone, oracle).n == 0
        assert agrees(cluster, LINES, gone, oracle).n == 0

    def test_a_pruned_query_pins_one_trans_pdt(self, tpch_data):
        cluster = loaded(tpch_data)
        key = int(tpch_data["orders"]["o_orderkey"][9])
        trans = cluster.begin()
        result = cluster.query(logical(cluster, ORDER.format(f"= {key}")),
                               trans=trans)
        (pid,) = scan_of(result, "orders").partitions
        assert list(trans.parts) == [("orders", pid)]
        trans = cluster.begin()
        unpruned = ORDER.format(f"BETWEEN {key} AND {key}")
        cluster.query(logical(cluster, unpruned), trans=trans)
        assert len(trans.parts) == 8

    def test_a_keyed_update_and_delete_scan_one_partition(self, tpch_data):
        cluster = loaded(tpch_data)
        key = int(tpch_data["orders"]["o_orderkey"][20])
        n_lines = int((tpch_data["lineitem"]["l_orderkey"] == key).sum())
        owner = {}
        for table, column in (("orders", "o_orderkey"),
                              ("lineitem", "l_orderkey")):
            stored = cluster.table(table)
            owner[table] = next(
                pid for pid in range(stored.n_partitions)
                if key in stored.scan_partition(pid, [column]).columns[column])
        trans = cluster.begin()
        for sql, table, column, hit in (
                (f"UPDATE orders SET o_totalprice = 1.5 "
                 f"WHERE o_orderkey = {key}", "orders", "o_orderkey", 1),
                (f"DELETE FROM lineitem WHERE l_orderkey = {key}",
                 "lineitem", "l_orderkey", n_lines)):
            before = blocks_seen(cluster, table)
            assert execute_sql(cluster, sql, trans=trans) == hit
            store = cluster.table(table).partitions[owner[table]]
            assert blocks_seen(cluster, table) - before == len(
                store.blocks[column])
        assert sorted(trans.parts) == [("lineitem", owner["lineitem"]),
                                       ("orders", owner["orders"])]
        trans.commit()
        oracle = row_engine(cluster)
        assert agrees(cluster, ORDER, key, oracle).columns[
            "o_totalprice"].tolist() == [1.5]
        assert agrees(cluster, LINES, key, oracle).n == 0


class TestTopologyChange:
    @pytest.mark.parametrize("change", ["fail_node", "add_worker"])
    def test_the_one_sender_sits_on_the_new_responsible_node(
            self, tpch_data, change):
        cluster = loaded(tpch_data, n_nodes=5)
        before = {pid: cluster.responsible("orders", pid) for pid in range(8)}
        if change == "fail_node":
            cluster.fail_node(cluster.workers[1])
        else:
            cluster.add_worker("node6")
        assert any(cluster.responsible("orders", pid) != node
                   for pid, node in before.items())
        oracle = row_engine(cluster, ("orders",))
        keys = tpch_data["orders"]["o_orderkey"][:40].tolist()
        reached = set()
        for key in keys:
            result = cluster.query(logical(cluster, ORDER.format(f"= {key}")))
            (pid,) = scan_of(result, "orders").partitions
            reached.add(pid)
            assert streams(result, "orders") == 1
            sources = {link["src"] for ex in result.exchanges
                       for link in ex["links"]}
            assert sources == {cluster.responsible("orders", pid)}
            assert_batches_match(result.batch, agrees(
                cluster, ORDER, key, oracle))
        assert len(reached) == 8
