"""Integration tests for the cluster facade: DDL, failover, elasticity."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import PlanError, ReproError, StorageError
from repro.common.types import INT64
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col, Const
from repro.mpp.logical import LAggr, LJoin, LScan
from repro.sql import execute_sql
from repro.storage import Column, TableSchema


def two_table_cluster(n_nodes=4):
    c = VectorHCluster(n_nodes=n_nodes, config=Config().scaled_for_tests())
    for name, key in [("r", "rk"), ("s", "sk")]:
        c.create_table(TableSchema(
            name, [Column(key, INT64), Column(f"{name}_v", INT64)],
            partition_key=(key,), n_partitions=12))
    rng = np.random.default_rng(1)
    c.bulk_load("r", {"rk": np.arange(2000),
                      "r_v": rng.integers(0, 10, 2000)})
    c.bulk_load("s", {"sk": np.arange(2000),
                      "s_v": rng.integers(0, 10, 2000)})
    return c


def join_count(c):
    plan = LAggr(
        LJoin(build=LScan("r", ["rk"]), probe=LScan("s", ["sk"]),
              build_keys=["rk"], probe_keys=["sk"]),
        [], [("n", "count", None)])
    return int(c.query(plan).batch.columns["n"][0])


class TestDdl:
    def test_create_assigns_affinity_and_wal(self):
        c = two_table_cluster()
        stored = c.tables["r"]
        group = c.placement.groups[12]
        for pid in range(stored.n_partitions):
            wal = c.wal.partition_wal_path("r", pid)
            for path in stored.partitions[pid].file_paths() + [wal]:
                assert c.hdfs.replica_locations(path) == \
                    list(group.targets[pid])

    def test_duplicate_table_rejected(self):
        c = two_table_cluster()
        with pytest.raises(StorageError):
            c.create_table(TableSchema("r", [Column("x", INT64)]))

    def test_drop_table(self):
        c = two_table_cluster()
        c.drop_table("r")
        assert "r" not in c.tables
        assert not c.hdfs.list_files("/db/r/")

    def test_matching_partitions_colocated(self):
        """Same pid of co-partitioned tables lives on the same nodes."""
        c = two_table_cluster()
        for pid in range(12):
            assert c.responsible("r", pid) == c.responsible("s", pid)

    def test_responsible_node_holds_primary_replica(self):
        c = two_table_cluster()
        stored = c.tables["r"]
        for pid in range(12):
            node = c.responsible("r", pid)
            for path in stored.partitions[pid].file_paths():
                assert node in c.hdfs.replica_locations(path)


class TestLocality:
    def test_scans_fully_short_circuited(self):
        c = two_table_cluster()
        c.registry.reset("hdfs_")
        c.clear_buffer_pools()
        c.query(LAggr(LScan("r", ["rk", "r_v"]), [],
                      [("n", "count", None)]))
        assert c.hdfs.locality_fraction() == 1.0

    def test_colocated_join_no_network_data(self):
        c = two_table_cluster()
        n = join_count(c)
        assert n == 2000
        # only the DXchgUnion gather and 2PC-free coordination remain
        res = c.query(LAggr(LScan("r", ["rk"]), [], [("n", "count", None)]))
        assert res.network_bytes < 10_000


def keyed_table(c, name, key, n_partitions=8, n_rows=1000):
    c.create_table(TableSchema(name, [Column(key, INT64)],
                               partition_key=(key,),
                               n_partitions=n_partitions))
    c.bulk_load(name, {key: np.arange(n_rows)})


class TestDdlAfterTopologyChange:
    """A table created after the worker set changed joins the map its
    co-location group has *now*. While every table kept its own copy of
    the map, ``b`` got a fresh round-robin after each change below and
    the join, still planned local, answered 500, 125 and 250 rows."""

    @pytest.mark.parametrize("change", [
        "fail_node", "add_worker", "shrink_to_minimal_footprint"])
    def test_new_table_joins_its_group(self, change):
        c = VectorHCluster(n_nodes=5, config=Config().scaled_for_tests())
        keyed_table(c, "a", "ka")
        if change == "fail_node":
            c.fail_node(c.workers[-1])
        elif change == "add_worker":
            c.add_worker("node6")
        else:
            c.shrink_to_minimal_footprint()
        keyed_table(c, "b", "kb")
        for pid in range(8):
            assert c.responsible("b", pid) == c.responsible("a", pid)
        join = "SELECT count(*) AS n FROM a JOIN b ON ka = kb"
        plan = "\n".join(execute_sql(c, "EXPLAIN " + join).columns["plan"])
        assert "HashSplit" not in plan and "Broadcast" not in plan
        assert execute_sql(c, join).columns["n"].tolist() == [1000]
        assert c.placement.audit()["overall"] == 1.0

    def test_group_goes_with_its_last_table(self):
        c = VectorHCluster(n_nodes=5, config=Config().scaled_for_tests())
        keyed_table(c, "a", "ka")
        c.fail_node(c.workers[-1])
        c.drop_table("a")
        assert 8 not in c.placement.groups
        keyed_table(c, "b", "kb")     # a new group: round-robin again
        assert [c.responsible("b", p) for p in range(8)] == [
            c.workers[p % len(c.workers)] for p in range(8)]


class TestReplicatedScan:
    def test_replicated_table_reads_whole_after_add_worker(self):
        """``add_worker`` re-sorts the worker set, so the stream a
        replicated scan runs on need not be the session master's; the
        scan used to skip the table there and answer 0 rows."""
        c = VectorHCluster(n_nodes=5, config=Config().scaled_for_tests())
        keyed_table(c, "a", "ka")
        c.create_table(TableSchema("d", [Column("kd", INT64)]))
        c.bulk_load("d", {"kd": np.arange(100)})
        c.add_worker("node6")
        assert c.workers[0] != c.session_master
        assert execute_sql(c, "SELECT count(*) AS n FROM d").columns[
            "n"].tolist() == [100]
        assert execute_sql(c, "SELECT count(*) AS n FROM a JOIN d "
                              "ON ka = kd").columns["n"].tolist() == [100]


class TestAffinityTags:
    def test_table_named_like_the_end_of_another_keeps_its_affinity(self):
        """``a/part-0000`` is a substring of ``ba/part-0000``: the files of
        ``ba`` resolved to ``a``'s affinity, and after a failover 1 in 12
        of ``ba``'s partitions was not local to its responsible node."""
        c = VectorHCluster(n_nodes=6, config=Config().scaled_for_tests())
        keyed_table(c, "a", "ka", n_partitions=4)
        keyed_table(c, "ba", "kba", n_partitions=12)
        c.fail_node("node3")
        assert c.placement.audit() == {"a": 1.0, "ba": 1.0, "overall": 1.0}


class TestPartitionKeyUpdate:
    """A row stays in the partition its key hashed to at insert, so an
    UPDATE of a partition-key column would leave it where a co-located
    join no longer looks for it (998 rows instead of 999 below)."""

    def test_partition_key_assignment_rejected_before_any_row(self):
        c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
        for name, key in (("a", "ka"), ("b", "kb")):
            c.create_table(TableSchema(
                name, [Column(key, INT64), Column(f"{name}_v", INT64)],
                partition_key=(key,), n_partitions=4))
            c.bulk_load(name, {key: np.arange(1000),
                               f"{name}_v": np.arange(1000) % 7})
        with pytest.raises(PlanError, match="partition key"):
            c.update_where("a", Col("ka") == 5,
                           {"ka": Col("ka") * 0 + 70001})
        with pytest.raises(PlanError, match="partition key"):
            execute_sql(c, "UPDATE b SET kb = 70001 WHERE kb = 6")
        join = "SELECT count(*) AS n FROM a JOIN b ON ka = kb"
        assert "<partitioned on ka>" in "\n".join(
            execute_sql(c, "EXPLAIN " + join).columns["plan"])
        assert execute_sql(c, join).columns["n"].tolist() == [1000]
        # any other column still updates
        assert execute_sql(c, "UPDATE a SET a_v = 9 WHERE ka = 5") == 1


class TestFailover:
    def test_failover_preserves_results(self):
        c = two_table_cluster()
        before = join_count(c)
        c.fail_node(c.workers[-1])
        assert join_count(c) == before

    def test_failover_preserves_colocation(self):
        c = two_table_cluster()
        c.fail_node(c.workers[-1])
        for pid in range(12):
            assert c.responsible("r", pid) == c.responsible("s", pid)
            node = c.responsible("r", pid)
            paths = c.tables["r"].partitions[pid].file_paths()
            for path in paths:
                assert node in c.hdfs.replica_locations(path)

    def test_failover_rebuilds_pdts_from_wal(self):
        c = two_table_cluster()
        t = c.begin()
        c.insert("r", {"rk": np.array([10**6]), "r_v": np.array([1])},
                 trans=t, force_pdt=True)
        t.commit()
        info = c.fail_node(c.workers[-1])
        assert info["wal_replayed_bytes"] > 0
        plan = LAggr(LScan("r", ["rk"]), [], [("n", "count", None)])
        assert int(c.query(plan).batch.columns["n"][0]) == 2001

    def test_failover_replays_deletes_and_modifies_of_pdt_inserts(self):
        """The new responsible nodes rebuild every moved partition's PDT
        from its WAL: each scan, the rows' codes included, is what it was
        before the failure."""
        c = two_table_cluster()
        keys = np.arange(10**6, 10**6 + 36)
        c.insert("r", {"rk": keys, "r_v": np.ones(36, np.int64)},
                 force_pdt=True)
        c.update_where("r", Col("rk") >= 10**6 + 12, {"r_v": Const(7)})
        c.delete_where("r", (Col("rk") < 40) | (Col("rk") >= 10**6 + 30))
        stored = c.tables["r"]

        def scans():
            return [(res.columns["rk"].tolist(), res.columns["r_v"].tolist(),
                     res.identities.tolist())
                    for res in (stored.scan_partition(pid, ["rk", "r_v"])
                                for pid in range(stored.n_partitions))]

        before = scans()
        victim = c.workers[-1]
        moved = [pid for pid in range(12) if c.responsible("r", pid) == victim]
        assert moved and all(min(before[pid][2]) < 0 for pid in moved)
        info = c.fail_node(victim)
        assert info["wal_replayed_bytes"] > 0
        assert all(c.responsible("r", pid) != victim for pid in moved)
        assert scans() == before
        assert sum(len(rk) for rk, _, _ in before) == 2000 - 40 + 36 - 6

    def test_session_master_moves_if_needed(self):
        c = two_table_cluster()
        victim = c.session_master
        c.fail_node(victim)
        assert c.session_master != victim
        assert c.session_master in c.workers

    def test_fail_unknown_node_rejected(self):
        c = two_table_cluster()
        with pytest.raises(ReproError):
            c.fail_node("bogus")

    def test_two_failures_survived(self):
        c = two_table_cluster(n_nodes=5)
        before = join_count(c)
        c.fail_node(c.workers[-1])
        c.fail_node(c.workers[-1])
        assert join_count(c) == before

    def test_updates_after_failover(self):
        c = two_table_cluster()
        c.fail_node(c.workers[-1])
        deleted = c.delete_where("r", Col("rk") < 100)
        assert deleted == 100
        plan = LAggr(LScan("r", ["rk"]), [], [("n", "count", None)])
        assert int(c.query(plan).batch.columns["n"][0]) == 1900


class TestPropagation:
    def test_propagate_updates_clears_pdts(self):
        c = two_table_cluster()
        c.delete_where("r", Col("rk") < 50)
        stats = c.propagate_updates("r", force=True)
        assert stats["full"] > 0
        assert all(s.total_entries() == 0 for s in c.tables["r"].pdt)
        plan = LAggr(LScan("r", ["rk"]), [], [("n", "count", None)])
        assert int(c.query(plan).batch.columns["n"][0]) == 1950

    def test_buffer_pools_invalidated_after_propagation(self):
        c = two_table_cluster()
        c.query(LAggr(LScan("r", ["rk"]), [], [("n", "count", None)]))
        c.delete_where("r", Col("rk") < 50)
        c.propagate_updates("r", force=True)
        plan = LAggr(LScan("r", ["rk"]), [], [("n", "count", None)])
        assert int(c.query(plan).batch.columns["n"][0]) == 1950
