"""The finished build's key set as one more predicate of the probe-side
scan: same answers as the row engine through every state the scan can be
in, honest cardinality feedback, and no filter where it is not provably
legal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CompetitorSystem
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.engine.expressions import Col
from repro.mpp import plan as P
from repro.mpp.logical import LJoin, LProject, LScan, LSelect
from repro.mpp.rewriter import ParallelRewriter
from repro.sql.binder import _SelectBinder
from repro.sql.parser import SqlParser
from repro.tpch import refresh_rf1, refresh_rf2, tpch_schemas
from repro.tpch.schema import LOAD_ORDER

from .conftest import assert_batches_match

Q3 = ("SELECT l_orderkey, o_orderdate, o_shippriority, "
      "sum(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
      "JOIN customer ON o_custkey = c_custkey "
      "WHERE c_mktsegment = 'BUILDING' "
      "AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15' "
      "GROUP BY l_orderkey, o_orderdate, o_shippriority "
      "ORDER BY revenue DESC, o_orderdate LIMIT 10")
Q5 = ("SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
      "JOIN customer ON o_custkey = c_custkey "
      "JOIN supplier ON l_suppkey = s_suppkey "
      "JOIN nation ON s_nationkey = n_nationkey "
      "JOIN region ON n_regionkey = r_regionkey "
      "WHERE r_name = 'ASIA' AND c_nationkey = s_nationkey "
      "AND o_orderdate >= date '1994-01-01' "
      "AND o_orderdate < date '1995-01-01' "
      "GROUP BY n_name ORDER BY revenue DESC")
Q10 = ("SELECT c_custkey, c_name, "
       "sum(l_extendedprice * (1 - l_discount)) AS revenue, "
       "c_acctbal, n_name FROM lineitem "
       "JOIN orders ON l_orderkey = o_orderkey "
       "JOIN customer ON o_custkey = c_custkey "
       "JOIN nation ON c_nationkey = n_nationkey "
       "WHERE o_orderdate >= date '1993-10-01' "
       "AND o_orderdate < date '1994-01-01' AND l_returnflag = 'R' "
       "GROUP BY c_custkey, c_name, c_acctbal, n_name "
       "ORDER BY revenue DESC, c_custkey LIMIT 20")
Q12 = ("SELECT l_shipmode, sum(CASE WHEN o_orderpriority = '1-URGENT' "
       "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, "
       "sum(CASE WHEN o_orderpriority <> '1-URGENT' "
       "AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count "
       "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
       "WHERE l_shipmode IN ('MAIL', 'SHIP') "
       "AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
       "AND l_receiptdate >= date '1994-01-01' "
       "AND l_receiptdate < date '1995-01-01' "
       "GROUP BY l_shipmode ORDER BY l_shipmode")
SHAPES = {"q3": Q3, "q5": Q5, "q10": Q10, "q12": Q12}


def loaded(tpch_data) -> VectorHCluster:
    cluster = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    schemas = tpch_schemas(n_partitions=4)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


def logical(cluster, sql: str):
    return _SelectBinder(cluster, SqlParser(sql).parse()).plan()


def row_engine(cluster) -> CompetitorSystem:
    """The row engine over what bare scans (no join, so no key filter)
    read from ``cluster`` right now, PDT entries merged in."""
    system = CompetitorSystem("hive", workers=3, rows_per_group=1024)
    system.load({
        name: cluster.query(LScan(
            name, cluster.table(name).schema.column_names)).batch.columns
        for name in LOAD_ORDER})
    return system


def key_filters(cluster, sql: str):
    plan = ParallelRewriter(cluster).plan(logical(cluster, sql))
    return {node.table: node.key_filter for node in plan.root.walk()
            if isinstance(node, P.PScan) and node.key_filter}


def served(cluster, sql: str):
    """``sql`` through the server, past its result cache."""
    frontend = cluster.serve()
    frontend.result_cache.clear()
    return frontend.connect().simple_query(sql)


class TestAnswers:
    @pytest.fixture(scope="class")
    def cluster(self, tpch_data):
        return loaded(tpch_data)

    @pytest.fixture(scope="class")
    def oracle(self, cluster):
        return row_engine(cluster)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_cold_and_feedback_warmed_equal_the_row_engine(
            self, name, cluster, oracle):
        sql = SHAPES[name]
        expected = oracle.run(logical(cluster, sql))
        assert expected.n
        filtered = set()
        for _ in range(3):  # cold, then planned from what the last run saw
            filtered |= set(key_filters(cluster, sql))
            assert_batches_match(served(cluster, sql), expected)
        assert filtered  # the statement did run with a key-filtered scan

    def test_after_refreshes_with_unpropagated_entries(self, tpch_data):
        cluster = loaded(tpch_data)
        for sql in SHAPES.values():  # warm the feedback store first
            served(cluster, sql)
        refresh_rf1(cluster, fraction=0.05)
        refresh_rf2(cluster, fraction=0.05)
        for table in ("orders", "lineitem"):
            assert any(stack.total_entries()
                       for stack in cluster.table(table).pdt)
        oracle = row_engine(cluster)
        for sql in SHAPES.values():
            assert key_filters(cluster, sql)
            assert_batches_match(served(cluster, sql),
                                 oracle.run(logical(cluster, sql)))

    def test_an_inserted_row_survives_and_a_deleted_one_does_not(
            self, tpch_data):
        """PDT rows are tested on the merged image: a lineitem inserted
        for an order in the build is kept, one deleted is gone, and one
        inserted for an order outside the build never reaches the join."""
        cluster = loaded(tpch_data)
        orders = tpch_data["orders"]
        cutoff = int(np.median(orders["o_orderdate"]))
        early = orders["o_orderkey"][orders["o_orderdate"] < cutoff]
        late = orders["o_orderkey"][orders["o_orderdate"] >= cutoff]
        kept, gone, outside = int(early[0]), int(early[1]), int(late[0])
        sql = ("SELECT l_orderkey, l_linenumber FROM lineitem "
               "JOIN orders ON l_orderkey = o_orderkey "
               f"WHERE o_orderdate < {cutoff}")
        assert key_filters(cluster, sql) == {"lineitem": ("l_orderkey",)}
        before = served(cluster, sql)

        lines = tpch_data["lineitem"]
        template = {c: v[:2].copy() for c, v in lines.items()}
        template["l_orderkey"][:] = [kept, outside]
        template["l_linenumber"][:] = 99
        trans = cluster.begin()
        cluster.insert("lineitem", template, trans=trans, force_pdt=True)
        cluster.delete_where("lineitem", Col("l_orderkey") == gone,
                             trans=trans)
        trans.commit()

        after = served(cluster, sql)
        pairs = set(zip(after.columns["l_orderkey"].tolist(),
                        after.columns["l_linenumber"].tolist()))
        assert (kept, 99) in pairs
        assert (outside, 99) not in pairs
        assert gone not in after.columns["l_orderkey"].tolist()
        n_gone = int((lines["l_orderkey"] == gone).sum())
        assert n_gone and after.n == before.n + 1 - n_gone
        assert_batches_match(after, row_engine(cluster).run(
            logical(cluster, sql)))


class TestFeedbackStaysHonest:
    def test_three_runs_one_plan_and_the_scan_is_judged_unfiltered(
            self, tpch_data):
        cluster = loaded(tpch_data)
        shipped_after = int(np.sum(
            tpch_data["lineitem"]["l_shipdate"] > 9204))  # 1995-03-15
        plan, shapes, texts = logical(cluster, Q3), [], []
        for _ in range(3):
            result = cluster.query(plan)
            shapes.append(result.qplan.root.pretty())
            texts.append(result.qplan.pretty())
            scan = next(n for n in result.qplan.root.walk()
                        if isinstance(n, P.PScan) and n.table == "lineitem")
            assert scan.key_filter == ("l_orderkey",)
            prof = result.profile_of(scan)
            assert prof.key_filtered > 0
            assert prof.tuples_out + prof.key_filtered == shipped_after
            entry = cluster.feedback.entries[
                result.qplan.annotations[scan].signature]
            assert entry.observed == shipped_after
        # one plan; its estimates are static once, then what was observed
        assert shapes[0] == shapes[1] == shapes[2]
        assert texts[1] == texts[2]
        assert "lineitem" in texts[2] and "(fb)" in texts[2]

    def test_filters_between_join_and_scan_are_not_judged(self, tpch_data):
        """A Select under the join sees what the key filter left: its
        count says nothing about its predicate, so it is not remembered."""
        cluster = loaded(tpch_data)
        probe = LSelect(LScan("lineitem", ["l_orderkey", "l_quantity"]),
                        Col("l_quantity") < 10)
        plan = LJoin(build=LSelect(LScan("orders", ["o_orderkey",
                                                    "o_orderdate"]),
                                   Col("o_orderdate") < 8500),
                     probe=probe, build_keys=["o_orderkey"],
                     probe_keys=["l_orderkey"])
        result = cluster.query(plan)
        select = next(n for n in result.qplan.root.walk()
                      if isinstance(n, P.PSelect)
                      and n.children[0].table == "lineitem")
        assert result.profile_of(select.children[0]).key_filtered > 0
        signature = result.qplan.annotations[select].signature
        assert signature and signature not in cluster.feedback.entries
        join = next(n for n in result.qplan.root.walk()
                    if isinstance(n, P.PHashJoin))
        assert result.qplan.annotations[join].signature \
            in cluster.feedback.entries

    def test_explain_analyze_shows_both_counts_and_the_lookup(
            self, tpch_data):
        from repro.sql import execute_sql
        cluster = loaded(tpch_data)
        lines = execute_sql(
            cluster, "EXPLAIN ANALYZE " + Q3).columns["plan"].tolist()
        scan = next(line for line in lines if "MScan[lineitem]" in line)
        assert "key-filter[l_orderkey]" in scan
        assert "filtered=" in scan and "key_filtered=" in scan
        join = next(line for line in lines
                    if "HashJoin(inner)[l_orderkey=o_orderkey]" in line)
        assert "lookup=position+unique" in join


class TestLegality:
    """Plans the filter must stay out of say so: no ``key-filter``."""

    @pytest.fixture(scope="class")
    def cluster(self, tpch_data):
        return loaded(tpch_data)

    ORDERS = LSelect(LScan("orders", ["o_orderkey", "o_orderdate"]),
                     Col("o_orderdate") < 8500)
    LINES = LScan("lineitem", ["l_orderkey", "l_suppkey", "l_quantity"])

    def _join(self, how="inner", build=None, probe=None,
              build_keys=("o_orderkey",), probe_keys=("l_orderkey",)):
        return LJoin(build=build or self.ORDERS, probe=probe or self.LINES,
                     build_keys=list(build_keys), probe_keys=list(probe_keys),
                     how=how, build_payload=[] if how != "inner" else None)

    def _text(self, cluster, plan):
        return ParallelRewriter(cluster).plan(plan).root.pretty()

    @pytest.mark.parametrize("how", ["inner", "semi"])
    def test_inner_and_semi_joins_filter_the_probe_scan(self, cluster, how):
        assert "key-filter[l_orderkey]" in self._text(cluster,
                                                      self._join(how))

    @pytest.mark.parametrize("how", ["left", "anti"])
    def test_left_and_anti_joins_keep_every_probe_row(self, cluster, how):
        assert "key-filter" not in self._text(cluster, self._join(how))

    def test_an_unfiltered_build_scan_holds_every_key(self, cluster):
        plan = self._join(build=LScan("orders", ["o_orderkey"]))
        assert "key-filter" not in self._text(cluster, plan)

    def test_a_replicated_probe_scan_is_shared_between_streams(self, cluster):
        plan = self._join(
            build=LSelect(LScan("supplier", ["s_suppkey", "s_nationkey"]),
                          Col("s_nationkey") < 5),
            probe=LScan("nation", ["n_nationkey"]),
            build_keys=["s_nationkey"], probe_keys=["n_nationkey"])
        text = self._text(cluster, plan)
        assert "MScan[nation]  <replicated>" in text
        assert "key-filter" not in text

    def test_a_probe_side_behind_an_exchange_is_another_stream(self, cluster):
        """Neither side sits on the key and the build is the big one:
        both are reshuffled, and the scan feeds a sender fragment."""
        plan = self._join(
            build=LSelect(LScan("lineitem", ["l_suppkey", "l_quantity"]),
                          Col("l_quantity") < 40.0),
            probe=LScan("customer", ["c_nationkey"]),
            build_keys=["l_suppkey"], probe_keys=["c_nationkey"])
        lines = self._text(cluster, plan).splitlines()
        scan = next(i for i, line in enumerate(lines)
                    if "MScan[customer]" in line)
        assert "DXchgHashSplit[c_nationkey]" in lines[scan - 1]
        assert "key-filter" not in lines[scan]

    def test_a_computed_key_is_no_column_of_the_scan(self, cluster):
        renamed = LProject(self.LINES, {"k": Col("l_orderkey"),
                                        "q": Col("l_quantity")})
        text = self._text(cluster, self._join(probe=renamed,
                                              probe_keys=["k"]))
        assert "key-filter[l_orderkey]" in text
        computed = LProject(self.LINES, {"k": Col("l_orderkey") + 0})
        assert "key-filter" not in self._text(
            cluster, self._join(probe=computed, probe_keys=["k"]))

    def test_a_decimal_key_is_stored_in_another_representation(
            self, cluster):
        plan = self._join(
            build=LSelect(LScan("supplier", ["s_acctbal"]),
                          Col("s_acctbal") < 0.0),
            build_keys=["s_acctbal"], probe_keys=["l_quantity"])
        assert "key-filter" not in self._text(cluster, plan)

    def test_an_empty_build_empties_the_scan_and_keeps_the_schema(
            self, cluster):
        nothing = LSelect(LScan("orders", ["o_orderkey", "o_orderdate"]),
                          Col("o_orderdate") < 0)
        result = cluster.query(self._join(build=nothing))
        assert result.batch.n == 0
        assert set(result.batch.columns) >= {"l_orderkey", "o_orderdate"}
        scan = next(n for n in result.qplan.root.walk()
                    if isinstance(n, P.PScan) and n.key_filter)
        prof = result.profile_of(scan)
        assert prof.tuples_out == 0 and prof.key_filtered == sum(
            p.n_stable for p in cluster.table("lineitem").partitions)

    def test_answers_with_and_without_the_link_agree(self, cluster):
        """The filter only removes rows the join would drop: unlinking
        the scan changes no row."""
        qplan = ParallelRewriter(cluster).plan(self._join())
        linked = cluster.query(qplan)
        scan = next(n for n in qplan.root.walk() if isinstance(n, P.PScan)
                    and n.key_filter)
        assert linked.profile_of(scan).key_filtered > 0
        bare = ParallelRewriter(cluster).plan(self._join())
        for node in bare.root.walk():
            if isinstance(node, P.PScan):
                node.key_filter = ()
            if isinstance(node, P.PHashJoin):
                node.key_filter_scan = None
        unlinked = cluster.query(bare)
        assert not any(p.key_filtered
                       for p in unlinked.plan_profiles.values())
        assert_batches_match(linked.batch, unlinked.batch)
