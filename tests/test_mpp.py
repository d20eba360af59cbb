"""Tests for the MPP layer: rewriter rules, exchanges, MPI accounting."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.types import INT64, STRING
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col
from repro.mpp import (
    DXBroadcast,
    DXHashSplit,
    LAggr,
    LJoin,
    LScan,
    LSelect,
    LSort,
    LTopN,
    ParallelRewriter,
    RewriterFlags,
)
from repro.mpp import plan as P
from repro.mpp.logical import LUnionAll
from repro.mpp.rewriter import split_aggregates
from repro.net.mpi import MpiFabric, dxchg_buffer_memory
from repro.storage import Column, TableSchema


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    rng = np.random.default_rng(0)
    c.create_table(TableSchema(
        "fact", [Column("fk", INT64), Column("dim_k", INT64),
                 Column("v", INT64)],
        partition_key=("fk",), n_partitions=6))
    c.create_table(TableSchema(
        "dim_big", [Column("bk", INT64), Column("name", STRING)],
        partition_key=("bk",), n_partitions=6))
    c.create_table(TableSchema(
        "tiny", [Column("tk", INT64), Column("label", STRING)]))
    n = 3000
    c.bulk_load("fact", {"fk": np.arange(n),
                         "dim_k": rng.integers(0, 100, n),
                         "v": rng.integers(0, 10, n)})
    c.bulk_load("dim_big", {"bk": np.arange(n),
                            "name": np.array([f"n{i}" for i in range(n)],
                                             object)})
    c.bulk_load("tiny", {"tk": np.arange(100),
                         "label": np.array([f"t{i % 5}" for i in range(100)],
                                           object)})
    return c


def find_nodes(phys, cls):
    out = []
    stack = [phys]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            out.append(node)
        stack.extend(node.children)
    return out


class TestRewriterRules:
    def test_colocated_join_no_exchange(self, cluster):
        plan = LJoin(build=LScan("fact", ["fk"]),
                     probe=LScan("dim_big", ["bk", "name"]),
                     build_keys=["fk"], probe_keys=["bk"])
        phys = ParallelRewriter(cluster).plan(plan).root
        assert not find_nodes(phys, DXHashSplit)
        assert not find_nodes(phys, DXBroadcast)

    def test_local_join_disabled_forces_exchange(self, cluster):
        plan = LJoin(build=LScan("fact", ["fk"]),
                     probe=LScan("dim_big", ["bk", "name"]),
                     build_keys=["fk"], probe_keys=["bk"])
        flags = RewriterFlags(local_join=False, replicate_build=False,
                              merge_join=False)
        phys = ParallelRewriter(cluster, flags).plan(plan).root
        assert find_nodes(phys, (DXHashSplit, DXBroadcast))

    def test_replicated_build_joins_locally(self, cluster):
        plan = LJoin(build=LScan("tiny", ["tk", "label"]),
                     probe=LScan("fact", ["fk", "dim_k"]),
                     build_keys=["tk"], probe_keys=["dim_k"])
        phys = ParallelRewriter(cluster).plan(plan).root
        assert not find_nodes(phys, (DXHashSplit, DXBroadcast))

    def test_misaligned_join_aligns_reshuffle_with_table(self, cluster):
        # join fact.dim_k = dim_big.bk: probe fact must reshuffle and must
        # follow dim_big's partition->node mapping
        plan = LJoin(build=LScan("dim_big", ["bk", "name"]),
                     probe=LScan("fact", ["fk", "dim_k"]),
                     build_keys=["bk"], probe_keys=["dim_k"])
        phys = ParallelRewriter(cluster).plan(plan).root
        splits = find_nodes(phys, DXHashSplit)
        broadcasts = find_nodes(phys, DXBroadcast)
        if splits:
            assert any(s.align_with == "dim_big" for s in splits)
        else:
            assert broadcasts  # cost model preferred broadcast: also valid

    def test_partial_aggregation_inserted(self, cluster):
        plan = LAggr(LScan("fact", ["dim_k", "v"]), ["dim_k"],
                     [("s", "sum", Col("v"))])
        phys = ParallelRewriter(cluster).plan(plan).root
        aggrs = find_nodes(phys, P.PAggr)
        phases = {a.phase for a in aggrs}
        assert phases == {"partial", "final"}

    def test_partial_aggregation_disabled(self, cluster):
        plan = LAggr(LScan("fact", ["dim_k", "v"]), ["dim_k"],
                     [("s", "sum", Col("v"))])
        flags = RewriterFlags(partial_aggr=False)
        phys = ParallelRewriter(cluster, flags).plan(plan).root
        phases = {a.phase for a in find_nodes(phys, P.PAggr)}
        assert phases == {"direct"}

    def test_aggr_on_partition_key_stays_local(self, cluster):
        plan = LAggr(LScan("fact", ["fk", "v"]), ["fk"],
                     [("s", "sum", Col("v"))])
        phys = ParallelRewriter(cluster).plan(plan).root
        aggrs = find_nodes(phys, P.PAggr)
        assert [a.phase for a in aggrs] == ["direct"]
        assert not find_nodes(phys, DXHashSplit)

    def test_count_distinct_not_split(self, cluster):
        plan = LAggr(LScan("fact", ["dim_k", "v"]), ["dim_k"],
                     [("d", "count_distinct", Col("v"))])
        phys = ParallelRewriter(cluster).plan(plan).root
        phases = {a.phase for a in find_nodes(phys, P.PAggr)}
        assert phases == {"direct"}

    def test_topn_partial_final(self, cluster):
        plan = LTopN(LScan("fact", ["v"]), ["v"], 5)
        phys = ParallelRewriter(cluster).plan(plan).root
        topns = find_nodes(phys, P.PTopN)
        assert {t.phase for t in topns} == {"partial", "final"}

    def test_root_always_master(self, cluster):
        for plan in [LScan("fact", ["v"]),
                     LSelect(LScan("tiny", ["tk", "label"]),
                             Col("tk") > 0)]:
            phys = ParallelRewriter(cluster).plan(plan).root
            assert phys.distribution.kind == P.MASTER

    def test_split_aggregates_avg(self):
        ok, partial, final, post = split_aggregates(
            [("m", "avg", Col("x"))])
        assert ok
        assert {n for n, _, _ in partial} == {"m__psum", "m__pcnt"}
        assert post and "m" in post

    def test_split_aggregates_count_distinct_refused(self):
        ok, *_ = split_aggregates([("d", "count_distinct", Col("x"))])
        assert not ok


class TestCountType:
    """``count`` is int64 through every plan shape. The final phase of a
    split count used to ``sum`` its partials, and sums are float64."""

    PLANS = {
        "total": lambda: LAggr(
            LSelect(LScan("fact", ["v"]), Col("v") < 5), [],
            [("n", "count", None), ("a", "avg", Col("v"))]),
        "grouped": lambda: LAggr(
            LScan("fact", ["dim_k", "v"]), ["dim_k"],
            [("n", "count", None), ("m", "count", Col("v"))]),
        "nothing qualifies": lambda: LAggr(
            LSelect(LScan("fact", ["v"]), Col("v") < 0), [],
            [("n", "count", None)]),
    }

    @pytest.mark.parametrize("shape", sorted(PLANS))
    def test_same_values_and_dtypes_direct_and_split(self, cluster, shape):
        results = {}
        for partial in (True, False):
            flags = RewriterFlags(partial_aggr=partial)
            qplan = ParallelRewriter(cluster, flags).plan(self.PLANS[shape]())
            phases = {a.phase for a in find_nodes(qplan.root, P.PAggr)}
            assert phases == ({"partial", "final"} if partial
                              else {"direct"})
            results[partial] = cluster.query(qplan).batch
        split, direct = results[True], results[False]
        for name in ("n", "m"):
            if name in direct.columns:
                assert split.columns[name].dtype == np.int64
                assert direct.columns[name].dtype == np.int64
        order = (np.argsort(split.columns["dim_k"]),
                 np.argsort(direct.columns["dim_k"])) \
            if shape == "grouped" else (slice(None), slice(None))
        for name, values in direct.columns.items():
            assert np.array_equal(split.columns[name][order[0]],
                                  values[order[1]])

    def test_sql_count_is_an_integer(self, cluster):
        from repro.sql import execute_sql
        for sql in ("SELECT count(*) AS n FROM tiny WHERE label IN "
                    "('t1', 'nope')",
                    "SELECT label, count(*) AS n FROM tiny GROUP BY label"):
            out = execute_sql(cluster, sql)
            assert out.columns["n"].dtype == np.int64
            assert out.columns["n"].sum() in (20, 100)


class TestExecution:
    def test_union_all_concatenates(self, cluster):
        plan = LUnionAll([
            LAggr(LScan("fact", ["v"]), [], [("n", "count", None)]),
            LAggr(LScan("fact", ["v"]), [], [("n", "count", None)]),
        ])
        out = cluster.query(plan).batch
        assert out.n == 2
        assert list(out.columns["n"]) == [3000, 3000]

    def test_query_correctness_all_rule_combinations(self, cluster):
        plan = LAggr(
            LJoin(build=LScan("tiny", ["tk", "label"]),
                  probe=LScan("fact", ["fk", "dim_k", "v"]),
                  build_keys=["tk"], probe_keys=["dim_k"],
                  build_payload=["label"]),
            ["label"], [("s", "sum", Col("v")), ("n", "count", None)])
        reference = None
        for lj in (True, False):
            for rb in (True, False):
                for pa in (True, False):
                    flags = RewriterFlags(local_join=lj, replicate_build=rb,
                                          partial_aggr=pa)
                    res = cluster.query(plan, flags=flags)
                    got = sorted(zip(res.batch.columns["label"],
                                     res.batch.columns["s"],
                                     res.batch.columns["n"]))
                    if reference is None:
                        reference = got
                    else:
                        assert got == reference

    def test_network_bytes_increase_without_local_join(self, cluster):
        plan = LJoin(build=LScan("fact", ["fk"]),
                     probe=LScan("dim_big", ["bk"]),
                     build_keys=["fk"], probe_keys=["bk"])
        with_rules = cluster.query(plan)
        flags = RewriterFlags(local_join=False, replicate_build=False,
                              merge_join=False)
        without = cluster.query(plan, flags=flags)
        assert without.network_bytes > with_rules.network_bytes

    def test_result_at_master_single_batch(self, cluster):
        res = cluster.query(LSort(LScan("tiny", ["tk", "label"]), ["tk"]))
        assert res.batch.n == 100
        assert list(res.batch.columns["tk"][:3]) == [0, 1, 2]

    def test_simulated_time_reported(self, cluster):
        res = cluster.query(LAggr(LScan("fact", ["v"]), [],
                                  [("s", "sum", Col("v"))]))
        assert res.simulated_parallel_seconds > 0
        assert res.elapsed >= 0

    def test_profiles_collected(self, cluster):
        res = cluster.query(LAggr(LScan("fact", ["v"]), [],
                                  [("s", "sum", Col("v"))]))
        assert res.profiles
        assert "Aggr" in res.format_profile()


class TestMpiFabric:
    def test_local_send_is_pointer_pass(self):
        mpi = MpiFabric()
        mpi.send("a", "a", 1000)
        assert mpi.total_bytes == 0
        assert mpi.local_bytes == 1000

    def test_message_rounding(self):
        mpi = MpiFabric(message_size=100)
        mpi.send("a", "b", 250)
        assert mpi.total_messages == 3
        assert mpi.total_bytes == 250

    def test_per_link_accounting(self):
        mpi = MpiFabric()
        mpi.send("a", "b", 10)
        mpi.send("b", "a", 20)
        assert mpi.bytes_by_link[("a", "b")] == 10
        assert mpi.bytes_by_link[("b", "a")] == 20

    def test_buffer_memory_formulas(self):
        msg = 256 * 1024
        t2t = dxchg_buffer_memory(100, 20, msg, thread_to_node=False)
        t2n = dxchg_buffer_memory(100, 20, msg, thread_to_node=True)
        # the paper's example: 2*100*20^2*256KB = 20GB for thread-to-thread
        assert t2t == 2 * 100 * 20 * 20 * msg
        assert t2t // t2n == 20  # reduced by num_cores
