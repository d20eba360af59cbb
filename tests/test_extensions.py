"""Tests for the paper's roadmap features implemented as extensions:
dynamic worker-set grow/shrink (section 4), and the point lookups that
unclustered indexes (section 2) would serve, answered by the scan."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import PlanError, ReproError
from repro.common.types import DECIMAL, INT64, STRING
from repro.cluster import VectorHCluster
from repro.cluster.vectorh import DIRECT_APPEND_THRESHOLD
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LScan
from repro.sql import execute_sql
from repro.storage import Column, TableSchema


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("k", INT64), Column("tag", STRING),
              Column("price", DECIMAL)],
        primary_key=("k",), partition_key=("k",), n_partitions=8))
    rng = np.random.default_rng(0)
    n = 4000
    c.bulk_load("t", {
        "k": np.arange(n),
        "tag": rng.choice(["a", "b", "c"], n).astype(object),
        "price": np.round(rng.uniform(1, 100, n), 2),
    })
    return c


def row_count(cluster):
    res = cluster.query(LAggr(LScan("t", ["k"]), [],
                              [("n", "count", None)]))
    return int(res.batch.columns["n"][0])


class TestDynamicWorkerSet:
    def test_add_worker_joins_and_rebalances(self, cluster):
        before = row_count(cluster)
        cluster.hdfs.add_node("node5")
        cluster.rm.register_node("node5", cluster.config.cores_per_node,
                                 cluster.config.memory_per_node_mb)
        cluster.dbagent.viable_machines.append("node5")
        cluster.add_worker("node5")
        assert "node5" in cluster.workers
        assert row_count(cluster) == before
        # the balanced affinity map must move partition copies onto the
        # newcomer (24 copies over 5 workers cannot avoid it), and any
        # partition it becomes responsible for must be local to it
        stored = cluster.tables["t"]
        holds = [pid for pid in range(8)
                 if any("node5" in cluster.hdfs.replica_locations(p)
                        for p in stored.partitions[pid].file_paths())]
        assert holds
        for pid in range(8):
            node = cluster.responsible("t", pid)
            for path in stored.partitions[pid].file_paths():
                assert node in cluster.hdfs.replica_locations(path)

    def test_add_existing_worker_rejected(self, cluster):
        with pytest.raises(ReproError):
            cluster.add_worker(cluster.workers[0])

    def test_shrink_to_minimal_footprint(self, cluster):
        before = row_count(cluster)
        active = cluster.shrink_to_minimal_footprint()
        assert len(active) < len(cluster.workers)
        # all responsibilities concentrated on the active subset
        owners = {cluster.responsible("t", pid) for pid in range(8)}
        assert owners <= set(active)
        # every partition is local at its (new) responsible node
        for pid in range(8):
            node = cluster.responsible("t", pid)
            for path in cluster.tables["t"].partitions[pid].file_paths():
                assert node in cluster.hdfs.replica_locations(path)
        assert row_count(cluster) == before

    def test_restore_full_footprint(self, cluster):
        cluster.shrink_to_minimal_footprint()
        cluster.restore_full_footprint()
        owners = {cluster.responsible("t", pid) for pid in range(8)}
        assert len(owners) > 1
        assert row_count(cluster) == 4000

    def test_updates_after_shrink(self, cluster):
        cluster.shrink_to_minimal_footprint()
        deleted = cluster.delete_where("t", Col("k") < 10)
        assert deleted == 10
        assert row_count(cluster) == 3990


def point_lookup(cluster, sql):
    return execute_sql(cluster, sql).columns


class TestSecondaryIndex:
    """What the unclustered index of paper section 2 answered, asked in
    SQL: an equality on any column is MinMax, the scan filter and the
    PDT merge of the one scan, with no index to keep in step."""

    def test_point_lookup(self, cluster):
        rows = point_lookup(cluster,
                            "SELECT k, tag, price FROM t WHERE k = 1234")
        assert list(rows["k"]) == [1234]
        assert rows["tag"][0] in ("a", "b", "c")
        served = cluster.serve().connect().simple_query(
            "SELECT k, tag, price FROM t WHERE k = 1234")
        for col in ("k", "tag", "price"):
            assert served.columns[col].tolist() == rows[col].tolist()

    def test_lookup_sees_pdt_insert(self, cluster):
        cluster.insert("t", {"k": np.array([999_999]),
                             "tag": np.array(["new"], object),
                             "price": np.array([9.5])})
        rows = point_lookup(cluster,
                            "SELECT k, tag, price FROM t WHERE k = 999999")
        assert list(rows["tag"]) == ["new"]
        assert rows["price"][0] == pytest.approx(9.5)

    def test_lookup_respects_delete(self, cluster):
        cluster.delete_where("t", Col("k") == 77)
        rows = point_lookup(cluster, "SELECT k FROM t WHERE k = 77")
        assert len(rows["k"]) == 0

    def test_lookup_respects_modify(self, cluster):
        # k is the partition key: the row may not change partition
        with pytest.raises(PlanError):
            cluster.update_where("t", Col("k") == 5,
                                 {"k": Col("k") * 0 + 70001})
        execute_sql(cluster, "UPDATE t SET tag = 'moved' WHERE k = 5")
        hit = point_lookup(cluster, "SELECT k, tag FROM t WHERE k = 5")
        assert list(hit["tag"]) == ["moved"]
        hit = point_lookup(cluster, "SELECT k FROM t WHERE tag = 'moved'")
        assert list(hit["k"]) == [5]

    def test_index_rebuilt_on_propagation(self, cluster):
        cluster.insert("t", {"k": np.array([888_888]),
                             "tag": np.array(["x"], object),
                             "price": np.array([1.0])})
        cluster.delete_where("t", Col("k") == 77)
        with pytest.raises(PlanError):
            execute_sql(cluster, "UPDATE t SET k = 70001 WHERE k = 5")
        execute_sql(cluster, "UPDATE t SET tag = 'moved' WHERE k = 5")
        probes = ([f"SELECT k, tag FROM t WHERE k = {k}"
                   for k in (888_888, 77, 5, 1234)]
                  + ["SELECT k, tag FROM t WHERE tag = 'moved'"])

        def answers():
            return [{c: v.tolist() for c, v in point_lookup(cluster, sql)
                     .items()} for sql in probes]
        before = answers()
        assert [a["k"] for a in before] == [[888_888], [], [5], [1234], [5]]
        cluster.propagate_updates("t", force=True)
        assert answers() == before

    def test_decimal_probe_converts(self, cluster):
        target = float(cluster.tables["t"].partitions[0]
                       .read_column("price")[0]) / 100
        rows = point_lookup(
            cluster, f"SELECT price FROM t WHERE price = {target:.2f}")
        assert len(rows["price"]) >= 1
        assert rows["price"][0] == pytest.approx(target)

    def test_direct_append_visible_to_point_lookup(self, cluster):
        # a large insert into an unordered table bypasses the PDTs and
        # appends blocks to the partitions; the unclustered index was
        # never rebuilt for them and answered 0 rows here
        keys = np.arange(120_000, 130_000)
        assert len(keys) >= DIRECT_APPEND_THRESHOLD
        cluster.insert("t", {"k": keys,
                             "tag": np.full(len(keys), "bulk", object),
                             "price": np.full(len(keys), 2.5)})
        stored = cluster.tables["t"]
        assert not any(stored.pdt[pid].scan_entries()
                       for pid in range(stored.n_partitions))
        rows = point_lookup(cluster,
                            "SELECT k, tag, price FROM t WHERE k = 123456")
        assert list(rows["k"]) == [123456]
        assert list(rows["tag"]) == ["bulk"]
