"""Tests for the paper's roadmap features implemented as extensions:
dynamic worker-set grow/shrink (section 4) and unclustered indexes
(section 2)."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import ReproError, StorageError
from repro.common.types import DECIMAL, INT64, STRING
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LScan
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


class TestSecondaryIndex:
    def test_point_lookup(self, cluster):
        cluster.create_index("t", "k")
        rows = cluster.index_lookup("t", "k", 1234, ["k", "tag", "price"])
        assert list(rows["k"]) == [1234]
        assert rows["tag"][0] in ("a", "b", "c")

    def test_lookup_reads_less_than_scan(self, cluster):
        cluster.create_index("t", "k")
        cluster.clear_buffer_pools()
        cluster.registry.reset("hdfs_")
        cluster.index_lookup("t", "k", 42, ["k", "tag"])
        lookup_bytes = cluster.hdfs.total_bytes_read()
        cluster.clear_buffer_pools()
        cluster.registry.reset("hdfs_")
        cluster.query(LScan("t", ["k", "tag"]))
        scan_bytes = cluster.hdfs.total_bytes_read()
        assert lookup_bytes < scan_bytes / 3

    def test_lookup_sees_pdt_insert(self, cluster):
        cluster.create_index("t", "k")
        cluster.insert("t", {"k": np.array([999_999]),
                             "tag": np.array(["new"], object),
                             "price": np.array([9.5])})
        rows = cluster.index_lookup("t", "k", 999_999, ["k", "tag",
                                                        "price"])
        assert list(rows["tag"]) == ["new"]
        assert rows["price"][0] == pytest.approx(9.5)

    def test_lookup_respects_delete(self, cluster):
        cluster.create_index("t", "k")
        cluster.delete_where("t", Col("k") == 77)
        rows = cluster.index_lookup("t", "k", 77, ["k"])
        assert len(rows["k"]) == 0

    def test_lookup_respects_modify(self, cluster):
        cluster.create_index("t", "k")
        cluster.update_where("t", Col("k") == 5, {"k": Col("k") * 0 + 70001})
        assert len(cluster.index_lookup("t", "k", 5, ["k"])["k"]) == 0
        hit = cluster.index_lookup("t", "k", 70001, ["k", "tag"])
        assert list(hit["k"]) == [70001]

    def test_index_rebuilt_on_propagation(self, cluster):
        cluster.create_index("t", "k")
        cluster.insert("t", {"k": np.array([888_888]),
                             "tag": np.array(["x"], object),
                             "price": np.array([1.0])})
        cluster.propagate_updates("t", force=True)
        rows = cluster.index_lookup("t", "k", 888_888, ["k"])
        assert list(rows["k"]) == [888_888]

    def test_duplicate_index_rejected(self, cluster):
        cluster.create_index("t", "k")
        with pytest.raises(StorageError):
            cluster.create_index("t", "k")

    def test_unknown_column_rejected(self, cluster):
        with pytest.raises(StorageError):
            cluster.create_index("t", "nope")

    def test_decimal_probe_converts(self, cluster):
        cluster.create_index("t", "price")
        target = float(cluster.tables["t"].partitions[0]
                       .read_column("price")[0]) / 100
        rows = cluster.index_lookup("t", "price", target, ["price"])
        assert len(rows["price"]) >= 1
        assert rows["price"][0] == pytest.approx(target)

    def test_index_memory_reported(self, cluster):
        index = cluster.create_index("t", "k")
        assert index.memory_bytes() > 0
