"""Tests for the simulated HDFS: append-only files, replication, placement,
failures, re-replication and locality accounting."""

import pytest

from repro.common.config import Config
from repro.common.errors import HdfsError
from repro.hdfs import (
    DefaultPlacementPolicy,
    HdfsCluster,
    VectorHPlacementPolicy,
)
from repro.hdfs.placement import partition_of

NODES = ["n1", "n2", "n3", "n4"]


@pytest.fixture()
def hdfs():
    return HdfsCluster(NODES, Config().scaled_for_tests())


class TestNamespace:
    def test_create_and_read(self, hdfs):
        hdfs.write_file("/a/b", b"hello", writer="n1")
        assert hdfs.read("/a/b") == b"hello"
        assert hdfs.file_size("/a/b") == 5

    def test_create_duplicate_rejected(self, hdfs):
        hdfs.create("/x", "n1")
        with pytest.raises(HdfsError):
            hdfs.create("/x", "n1")

    def test_missing_file(self, hdfs):
        with pytest.raises(HdfsError):
            hdfs.read("/nope")

    def test_list_files_prefix(self, hdfs):
        hdfs.write_file("/db/t/p1", b"x", "n1")
        hdfs.write_file("/db/t/p2", b"x", "n1")
        hdfs.write_file("/other", b"x", "n1")
        assert hdfs.list_files("/db/") == ["/db/t/p1", "/db/t/p2"]

    def test_delete(self, hdfs):
        hdfs.write_file("/gone", b"abc", "n1")
        holders = hdfs.replica_locations("/gone")
        hdfs.delete("/gone")
        assert not hdfs.exists("/gone")
        for h in holders:
            assert hdfs.nodes[h].bytes_stored == 0

    def test_append_only_growth(self, hdfs):
        hdfs.create("/log", "n1")
        hdfs.append("/log", b"one", "n1")
        hdfs.append("/log", b"two", "n1")
        assert hdfs.read("/log") == b"onetwo"
        assert hdfs.read("/log", offset=3, length=3) == b"two"


class TestReplication:
    def test_default_replication_degree(self, hdfs):
        hdfs.write_file("/f", b"data", "n1")
        assert len(hdfs.replica_locations("/f")) == 3

    def test_first_copy_on_writer(self, hdfs):
        hdfs.write_file("/f", b"data", writer="n3")
        assert hdfs.replica_locations("/f")[0] == "n3"

    def test_custom_replication(self, hdfs):
        hdfs.write_file("/tmp1", b"spill", "n1", replication=1)
        assert len(hdfs.replica_locations("/tmp1")) == 1

    def test_bytes_stored_accounting(self, hdfs):
        hdfs.write_file("/f", b"12345678", "n1")
        total = sum(n.bytes_stored for n in hdfs.nodes.values())
        assert total == 8 * 3


class TestShortCircuitReads:
    def test_local_read_short_circuits(self, hdfs):
        hdfs.write_file("/f", b"data", writer="n1")
        hdfs.read("/f", reader="n1")
        assert hdfs.nodes["n1"].bytes_read_local == 4
        assert hdfs.locality_fraction() == 1.0

    def test_remote_read_counted(self, hdfs):
        hdfs.write_file("/f", b"data", writer="n1")
        outsider = next(n for n in NODES
                        if n not in hdfs.replica_locations("/f"))
        hdfs.read("/f", reader=outsider)
        assert hdfs.locality_fraction() == 0.0

    def test_registry_reset_zeroes_io_counters(self, hdfs):
        hdfs.write_file("/f", b"data", "n1")
        hdfs.read("/f", reader="n1")
        stored = sum(n.bytes_stored for n in hdfs.nodes.values())
        hdfs.registry.reset("hdfs_")
        assert hdfs.total_bytes_read() == 0
        assert all(n.bytes_written == 0 for n in hdfs.nodes.values())
        # live state (a sticky gauge) is not a counter: it survives
        assert sum(n.bytes_stored for n in hdfs.nodes.values()) == stored > 0


class TestFailures:
    def test_fail_node_rereplicates(self, hdfs):
        hdfs.write_file("/f", b"data", writer="n1")
        victim = hdfs.replica_locations("/f")[0]
        repaired = hdfs.fail_node(victim)
        assert repaired == 1
        live = hdfs.replica_locations("/f")
        assert victim not in live
        assert len(live) == 3

    def test_read_survives_replica_loss(self, hdfs):
        hdfs.write_file("/f", b"data", writer="n1")
        hdfs.fail_node(hdfs.replica_locations("/f")[0])
        assert hdfs.read("/f") == b"data"

    def test_all_replicas_dead(self, hdfs):
        hdfs.write_file("/f", b"data", writer="n1", replication=1)
        holder = hdfs.replica_locations("/f")[0]
        hdfs.mark_node_dead(holder)
        with pytest.raises(HdfsError):
            hdfs.read("/f")

    def test_fail_dead_node_rejected(self, hdfs):
        hdfs.fail_node("n4")
        with pytest.raises(HdfsError):
            hdfs.fail_node("n4")

    def test_rereplication_respects_cluster_size(self):
        hdfs = HdfsCluster(["a", "b"], Config())
        hdfs.write_file("/f", b"x", "a")
        assert len(hdfs.replica_locations("/f")) == 2  # min(R, nodes)
        hdfs.fail_node("b")
        assert hdfs.replica_locations("/f") == ["a"]


def pinning(pins):
    """The VectorH policy with ``pins`` (``{(table, pid): nodes}``) as its
    affinity; read at every placement, so a test may change it."""
    return VectorHPlacementPolicy(lambda table, pid: pins.get((table, pid)))


class TestVectorHPlacement:
    def test_affinity_respected(self, hdfs):
        hdfs.placement_policy = pinning({("t", 1): ["n2", "n3", "n4"]})
        hdfs.write_file("/db/t/part-0001/chunk-0.dat", b"x" * 10, writer="n1")
        assert hdfs.replica_locations("/db/t/part-0001/chunk-0.dat") == \
            ["n2", "n3", "n4"]

    def test_unmatched_path_falls_back(self, hdfs):
        policy = VectorHPlacementPolicy()
        hdfs.placement_policy = policy
        hdfs.write_file("/elsewhere", b"x", writer="n2")
        assert hdfs.replica_locations("/elsewhere")[0] == "n2"

    def test_rereplication_follows_updated_affinity(self, hdfs):
        pins = {("t", 1): ["n1", "n2", "n3"]}
        hdfs.placement_policy = pinning(pins)
        hdfs.write_file("/db/t/part-0001/c0", b"x" * 8, writer="n1")
        # node1 dies; the new affinity pins the partition to n2,n3,n4
        pins[("t", 1)] = ["n2", "n3", "n4"]
        hdfs.fail_node("n1")
        assert sorted(hdfs.replica_locations("/db/t/part-0001/c0")) == \
            ["n2", "n3", "n4"]
        assert hdfs.nodes["n4"].bytes_rereplicated == 8

    def test_dead_affinity_targets_skipped(self, hdfs):
        hdfs.placement_policy = pinning({("t", 2): ["n1", "n2", "n3"]})
        hdfs.mark_node_dead("n2")
        hdfs.write_file("/db/t/part-0002/c0", b"x", writer="n1")
        locs = hdfs.replica_locations("/db/t/part-0002/c0")
        assert "n2" not in locs and len(locs) == 3

    def test_partition_matched_on_whole_path_components(self, hdfs):
        """``a/part-0000`` is a substring of ``ba/part-0000``: the files of
        table ``ba`` must still resolve to ``ba``, data and WAL alike."""
        hdfs.placement_policy = pinning({("a", 0): ["n1", "n2", "n3"],
                                         ("ba", 0): ["n2", "n3", "n4"]})
        for path in ("/db/ba/part-0000/c0", "/db/wal/ba/part-0000.wal"):
            hdfs.write_file(path, b"x", writer="n1")
            assert hdfs.replica_locations(path) == ["n2", "n3", "n4"]
        assert partition_of("/db/ba/part-0000/chunk-00000.dat") == ("ba", 0)
        assert partition_of("/db/wal/ba/part-0000.wal") == ("ba", 0)
        assert partition_of("/db/a/part-0012/partial-0001.dat") == ("a", 12)
        for path in ("/db/wal/global.wal", "/db/meta/feedback.json",
                     "/db/a/part-0001.dat", "/db/a/part-x/c0"):
            assert partition_of(path) is None


class TestDefaultPlacement:
    def test_deterministic_with_seed(self):
        p1 = DefaultPlacementPolicy(seed=5)
        p2 = DefaultPlacementPolicy(seed=5)
        a = p1.choose_targets("/f", "n1", 3, NODES)
        b = p2.choose_targets("/f", "n1", 3, NODES)
        assert a == b

    def test_excludes_current_holders(self):
        p = DefaultPlacementPolicy(seed=1)
        targets = p.choose_targets("/f", None, 2, NODES,
                                   current_holders=["n1", "n2"])
        assert set(targets).isdisjoint({"n1", "n2"})
