"""A prepared SELECT is planned once; every Execute binds its values.

The first Execute plans the statement into a template whose ``$N`` are
slots (:class:`~repro.engine.expressions.Param`); each Execute after it
runs ``template.bind(params)`` -- no binder, no rewriter, no deep copy --
until the template is stale. Everything here goes through
``repro.server``: a prepared answer equals the simple-protocol statement
with the literal spelled out and the row engine's, and its plan is the
literal's plan line for line.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import PlanError
from repro.common.types import DATE, INT64, days_to_date
from repro.engine.expressions import Col, Param
from repro.mpp.executor import REPLAN_QERROR_THRESHOLD
from repro.mpp.rewriter import ParallelRewriter
from repro.sql import execute_sql
from repro.sql.binder import _SelectBinder
from repro.sql.parser import SqlParser
from repro.storage import Column, TableSchema

from .conftest import assert_batches_match
from .test_partition_pruning import (LINES, ORDER, loaded, logical,
                                     row_engine, scan_of, streams)

PAIR = "SELECT a, b, v FROM pair WHERE a = {} AND b = {}"
DATES = ("SELECT o_orderkey, o_orderdate FROM orders "
         "WHERE o_orderdate BETWEEN {} AND {}")
IN_LIST = "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey IN ({}, {})"
PRICE = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice < {}"
PRIORITY = "SELECT o_orderkey FROM orders WHERE o_orderpriority = {}"


def sql_literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def spy_plans(cluster, monkeypatch) -> list:
    """Every plan ``cluster`` starts to run, from now on."""
    plans = []
    prepare = cluster.executor.prepare

    def spied(qplan, *args, **kwargs):
        plans.append(qplan)
        return prepare(qplan, *args, **kwargs)
    monkeypatch.setattr(cluster.executor, "prepare", spied)
    return plans


def load_pair(cluster) -> None:
    """``pair``: partitioned on two columns."""
    cluster.create_table(TableSchema(
        "pair", [Column("a", INT64), Column("b", INT64), Column("v", INT64)],
        partition_key=("a", "b"), n_partitions=8))
    i = np.arange(400)
    cluster.bulk_load("pair", {"a": i % 20, "b": i // 20, "v": i * 3})


class TestPreparedEqualsLiteral:
    @pytest.fixture(scope="class")
    def cluster(self, tpch_data):
        cluster = loaded(tpch_data)
        load_pair(cluster)
        return cluster

    @pytest.fixture(scope="class")
    def oracle(self, cluster):
        return row_engine(cluster, ("orders", "lineitem", "pair"))

    @staticmethod
    def shapes(tpch_data):
        """(template, parameter tuples): at least 20 per shape."""
        orders = tpch_data["orders"]
        rng = np.random.default_rng(31)
        keys = rng.choice(orders["o_orderkey"], 18, replace=False).tolist()
        keys += [int(orders["o_orderkey"].max()) + 1, 0]
        days = rng.choice(orders["o_orderdate"], 20, replace=False).tolist()
        prices = rng.choice(orders["o_totalprice"], 20).tolist()
        priorities = sorted(set(orders["o_orderpriority"].tolist()))
        return [
            (ORDER.format("= {}"), [(k,) for k in keys]),
            (LINES.format("= {}"), [(k,) for k in keys]),
            (PAIR, [(i % 23, i // 3) for i in range(21)]),
            (DATES, [(int(d), int(d) + 30) for d in days]),
            (IN_LIST, list(zip(keys, keys[::-1]))),
            # a DECIMAL bound with an int, then with a float
            (PRICE, [(int(p),) for p in prices[:10]] + [
                (float(p) + 0.25,) for p in prices[10:]]),
            (PRIORITY, [(p,) for p in priorities] + [
                (f"{n}-NONE",) for n in range(15)]),
        ]

    def test_every_shape_rebound_over_20_values(self, cluster, oracle,
                                                tpch_data, monkeypatch):
        plans = spy_plans(cluster, monkeypatch)
        frontend = cluster.serve()
        conn = frontend.connect()
        for n, (template, values) in enumerate(self.shapes(tpch_data)):
            assert len(values) >= 20
            slots = [f"${i + 1}" for i in range(len(values[0]))]
            conn.parse(f"s{n}", template.format(*slots))
            for params in values:
                literal = template.format(*map(sql_literal, params))
                frontend.result_cache.clear()
                conn.bind(f"s{n}", params)
                prepared = conn.execute()
                assert_batches_match(prepared, conn.simple_query(literal))
                bound, spelled = (p.root.pretty() for p in plans[-2:])
                assert bound.split("\n") == spelled.split("\n"), literal
                assert_batches_match(
                    prepared, oracle.run(logical(cluster, literal)))

    def test_a_date_range_binds_day_numbers(self, cluster, tpch_data):
        day = int(tpch_data["orders"]["o_orderdate"][7])
        conn = cluster.serve().connect()
        conn.parse("d", DATES.format("$1", "$2"))
        conn.bind("d", (day, day + 30))
        spelled = DATES.format(f"DATE '{days_to_date(day)}'",
                               f"DATE '{days_to_date(day + 30)}'")
        assert_batches_match(conn.execute(), conn.simple_query(spelled))

    def test_a_key_bound_to_minus_5_prunes_like_text(
            self, cluster, oracle, monkeypatch):
        plans = spy_plans(cluster, monkeypatch)
        conn = cluster.serve().connect()
        conn.parse("neg", ORDER.format("= $1"))
        for key in range(-5, -25, -1):
            conn.bind("neg", (key,))
            answer = conn.execute()
            (pid,) = scan_of(plans[-1], "orders").partitions
            assert pid == cluster.table("orders").reached_partitions(
                [("o_orderkey", "=", key)])[0]
            literal = ORDER.format(f"= {key}")
            assert_batches_match(answer, conn.simple_query(literal))
            assert_batches_match(answer, oracle.run(logical(cluster,
                                                            literal)))
            # the text's -5 is one literal too: the same partition
            assert scan_of(plans[-1], "orders").partitions == (pid,)

    def test_the_template_holds_slots_and_the_bound_plan_none(
            self, cluster):
        conn = cluster.serve().connect()
        prepared = conn.parse("o", ORDER.format("= $1"))
        conn.bind("o", (7,))
        conn.execute()
        template = prepared.template
        scan = scan_of(template, "orders")
        assert scan.partitions is None
        assert [type(v) for _, _, v in scan.skip_predicates] == [Param]
        assert "$1" in template.root.pretty()
        bound = template.bind((7,))
        assert "$" not in bound.root.pretty()
        assert scan_of(bound, "orders").skip_predicates == [
            ("o_orderkey", "=", 7)]
        # the template is left as it was
        assert [type(v) for _, _, v in scan.skip_predicates] == [Param]
        assert set(bound.annotations) <= set(bound.root.walk())

    def test_a_slot_without_a_value_is_a_typed_error(self, cluster):
        conn = cluster.serve().connect()
        prepared = conn.parse("p", PAIR.format("$1", "$2"))
        conn.bind("p", (1, 2))
        conn.execute()
        with pytest.raises(PlanError, match=r"unbound parameter \$2"):
            prepared.template.bind((1,))
        with pytest.raises(PlanError, match="unbound parameter"):
            Param(1).eval({"a": np.arange(3)})


class TestTheAstStaysAsParsed:
    @pytest.mark.parametrize("sql, params", [
        ("SELECT * FROM t WHERE k = $1", [(3,), (4,)]),
        ("UPDATE t SET v = $2 WHERE k = $1", [(3, 30), (4, 40)]),
    ])
    def test_after_two_executions(self, sql, params):
        cluster = small_cluster()
        conn = cluster.serve().connect()
        prepared = conn.parse("q", sql)
        for values in params:
            conn.bind("q", values)
            conn.execute()
        assert prepared.stmt == SqlParser(sql).parse()
        assert execute_sql(cluster, "SELECT v FROM t WHERE k = 4").columns[
            "v"].tolist() == [40 if sql.startswith("UPDATE") else 4]


# ------------------------------------------------------------ lifecycle

def small_cluster(n_partitions: int = 4, **overrides) -> VectorHCluster:
    config = Config().scaled_for_tests()
    for key, value in overrides.items():
        setattr(config, key, value)
    cluster = VectorHCluster(n_nodes=4, config=config)
    create_t(cluster, n_partitions)
    return cluster


def create_t(cluster, n_partitions: int) -> None:
    cluster.create_table(TableSchema(
        "t", [Column("k", INT64), Column("v", INT64), Column("d", DATE)],
        partition_key=("k",), n_partitions=n_partitions))
    k = np.arange(400)
    cluster.bulk_load("t", {"k": k, "v": k, "d": k % 40})


class Counted:
    """Calls of ``_SelectBinder.plan``, ``ParallelRewriter.plan`` and
    ``copy.deepcopy`` while installed."""

    def __init__(self, monkeypatch):
        self.calls = {"bind": 0, "plan": 0, "deepcopy": 0}
        for owner, attr, name in ((_SelectBinder, "plan", "bind"),
                                  (ParallelRewriter, "plan", "plan"),
                                  (copy, "deepcopy", "deepcopy")):
            monkeypatch.setattr(owner, attr,
                                self._counting(name, getattr(owner, attr)))

    def _counting(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.calls, 0)


def execute(conn, name: str, *params):
    conn.frontend.result_cache.clear()
    conn.bind(name, params)
    return conn.execute()


class TestTemplateLifecycle:
    def test_the_third_to_nth_execute_neither_bind_nor_plan_nor_copy(
            self, monkeypatch):
        cluster = small_cluster()
        conn = cluster.serve().connect()
        conn.parse("q", "SELECT k, v FROM t WHERE k = $1 AND d < $2")
        counted = Counted(monkeypatch)
        execute(conn, "q", 1, 40)
        assert counted.calls == {"bind": 1, "plan": 1, "deepcopy": 0}
        # the entries the first run observed were absent at planning:
        # the second execute plans once more, as a fresh plan warms up
        counted.reset()
        execute(conn, "q", 2, 40)
        assert counted.calls == {"bind": 1, "plan": 1, "deepcopy": 0}
        counted.reset()
        for key in range(3, 40):
            answer = execute(conn, "q", key, 40)
            assert answer.columns["v"].tolist() == [key]
        assert counted.calls == {"bind": 0, "plan": 0, "deepcopy": 0}

    def test_drop_and_create_again_replans_to_the_new_partitions(
            self, monkeypatch):
        cluster = small_cluster(n_partitions=4)
        plans = spy_plans(cluster, monkeypatch)
        conn = cluster.serve().connect()
        prepared = conn.parse("q", "SELECT k, v FROM t WHERE k = $1")
        for key in (5, 6):
            execute(conn, "q", key)
        before = prepared.template
        cluster.drop_table("t")
        create_t(cluster, n_partitions=7)
        assert execute(conn, "q", 123).columns["v"].tolist() == [123]
        assert prepared.template is not before
        (pid,) = scan_of(plans[-1], "t").partitions
        assert (pid,) == cluster.table("t").reached_partitions(
            [("k", "=", 123)])
        assert pid < 7

    @pytest.mark.parametrize("change", ["fail_node", "add_worker"])
    def test_a_topology_change_replans_and_one_sender_answers(
            self, tpch_data, change):
        cluster = loaded(tpch_data, n_nodes=5)
        conn = cluster.serve().connect()
        prepared = conn.parse("o", ORDER.format("= $1"))
        keys = tpch_data["orders"]["o_orderkey"][:24].tolist()
        for key in keys[:2]:
            execute(conn, "o", key)
        before = prepared.template
        if change == "fail_node":
            cluster.fail_node(cluster.workers[1])
        else:
            cluster.add_worker("node6")
        execute(conn, "o", keys[2])
        assert prepared.template is not before
        oracle = row_engine(cluster, ("orders",))
        for key in keys[3:]:
            result = cluster.query(prepared.plan(cluster, (key,)))
            (pid,) = scan_of(result, "orders").partitions
            assert streams(result, "orders") == 1
            assert {link["src"] for ex in result.exchanges
                    for link in ex["links"]} == {
                cluster.responsible("orders", pid)}
            assert_batches_match(result.batch, oracle.run(
                logical(cluster, ORDER.format(f"= {key}"))))

    def test_a_feedback_move_replans_only_past_the_threshold(self):
        cluster = small_cluster()
        conn = cluster.serve().connect()
        prepared = conn.parse("q", "SELECT k, v FROM t WHERE k = $1")
        for key in (1, 2):
            execute(conn, "q", key)
        template = prepared.template
        ((signature, read),) = [
            (s, r) for s, r in template.feedback.items()
            if s.startswith("select(")]
        assert read == 1.0
        feedback = cluster.feedback
        feedback.observe(signature, read,
                         read * REPLAN_QERROR_THRESHOLD * 0.9)
        execute(conn, "q", 3)
        assert prepared.template is template
        feedback.observe(signature, read, read * REPLAN_QERROR_THRESHOLD)
        execute(conn, "q", 4)
        assert prepared.template is not template

    def test_a_mid_query_replan_answers_with_the_bound_values(self):
        cluster = small_cluster()
        cluster.create_table(TableSchema(
            "f", [Column("pk", INT64), Column("fk", INT64)],
            partition_key=("pk",), n_partitions=4))
        cluster.bulk_load("f", {"pk": np.arange(300),
                                "fk": np.arange(300) % 400})
        # three slots on t's columns: the static build estimate is
        # 400 * 0.3**3 = 11 rows, so t is broadcast; 300 rows arrive
        sql = ("SELECT count(*) AS n, sum(v) AS s FROM f JOIN t ON fk = k "
               "WHERE k >= {} AND k >= {} AND v >= {}")
        conn = cluster.serve().connect()
        conn.parse("j", sql.format("$1", "$2", "$3"))
        answer = execute(conn, "j", 100, 0, 0)
        assert cluster.workload.terminal_records()[-1].replans == 1
        assert_batches_match(answer, conn.simple_query(sql.format(100, 0, 0)))
        assert answer.columns["n"].tolist() == [200]

    def test_twin_runs_keep_identical_feedback_and_query_log(self):
        def run():
            cluster = small_cluster(workload_deterministic=True)
            conn = cluster.serve().connect()
            conn.parse("q", "SELECT k, v FROM t WHERE k = $1 AND d < $2")
            conn.parse("r", "SELECT count(*) AS n FROM t WHERE v < $1")
            rng = np.random.default_rng(5)
            for _ in range(30):
                execute(conn, "q", int(rng.integers(0, 400)), 30)
                execute(conn, "r", int(rng.integers(0, 400)))
            feedback = execute_sql(cluster, "SELECT * FROM vh$plan_feedback")
            log = execute_sql(
                cluster, "SELECT query, session, state, statement, sim_ms, "
                "wait_ms, rounds, fingerprint, plan, rows, replans, "
                "max_qerror FROM vh$queries")
            return feedback, log

        (fa, la), (fb, lb) = run(), run()
        for a, b in ((fa, fb), (la, lb)):
            assert a.n == b.n and a.n > 0
            for name in a.column_names:
                assert a.columns[name].tolist() == b.columns[name].tolist()
        # every execution of a template observes into one entry per node
        assert all("$" in s or "vh$" in s
                   for s in fa.columns["signature"].tolist())


def test_a_slot_binds_through_every_expression():
    expr = (Col("a") + Param(1) == Col("b")) & ~(Col("c") < Param(2))
    assert repr(expr.bind((5, 6))) == "(((a + 5) = b) AND NOT (c < 6))"
    plain = Col("a") == 3
    assert plain.bind((5,)) is plain
