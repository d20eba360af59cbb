"""Focused tests for the MPP executor: exchanges, distributions, sizing."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.types import INT64, STRING
from repro.cluster import VectorHCluster
from repro.engine.batch import Batch, batch_bytes
from repro.engine.expressions import Col
from repro.mpp import plan as P
from repro.mpp.executor import _hash_to_streams
from repro.mpp.logical import LAggr, LJoin, LProject, LScan, LSelect
from repro.mpp.plan import QueryPlan
from repro.storage import Column, TableSchema


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("k", INT64), Column("s", STRING)],
        partition_key=("k",), n_partitions=6))
    c.create_table(TableSchema(
        "small", [Column("sk", INT64), Column("label", STRING)]))
    c.bulk_load("t", {"k": np.arange(600),
                      "s": np.array([f"v{i % 4}" for i in range(600)],
                                    object)})
    c.bulk_load("small", {"sk": np.arange(4),
                          "label": np.array(list("abcd"), object)})
    return c


class TestByteEstimation:
    def test_numeric_exact(self):
        batch = Batch({"a": np.zeros(100, np.int64)}, 100)
        assert batch_bytes(batch) == 800

    def test_strings_estimated(self):
        arr = np.empty(10, dtype=object)
        arr[:] = ["hello"] * 10
        batch = Batch({"s": arr}, 10)
        assert batch_bytes(batch) == (5 + 4) * 10

    def test_empty(self):
        assert batch_bytes(Batch({}, 0)) == 0


class TestHashToStreams:
    def test_deterministic_and_in_range(self):
        batch = Batch({"k": np.arange(1000)}, 1000)
        a = _hash_to_streams(batch, ["k"], ["w0", "w1", "w2"])
        b = _hash_to_streams(batch, ["k"], ["w0", "w1", "w2"])
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 3

    def test_spreads_sequential_keys(self):
        batch = Batch({"k": np.arange(999)}, 999)
        dest = _hash_to_streams(batch, ["k"], ["w0", "w1", "w2"])
        counts = np.bincount(dest, minlength=3)
        assert counts.min() > 200  # roughly even

    def test_string_keys(self):
        arr = np.empty(6, dtype=object)
        arr[:] = ["x", "y", "x", "z", "y", "x"]
        batch = Batch({"s": arr}, 6)
        dest = _hash_to_streams(batch, ["s"], ["w0", "w1"])
        # equal keys land on equal destinations
        assert dest[0] == dest[2] == dest[5]
        assert dest[1] == dest[4]


_ROUTING_SCRIPT = """
import json
import numpy as np
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.types import INT64, STRING
from repro.mpp.logical import LAggr, LScan
from repro.storage import Column, TableSchema

names = np.array([f"name-{i % 97}" for i in range(3000)], object)
schema = TableSchema("by_name", [Column("s", STRING), Column("k", INT64)],
                     partition_key=("s",), n_partitions=6)
c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
c.create_table(TableSchema("t", [Column("k", INT64), Column("s", STRING)],
                           partition_key=("k",), n_partitions=6))
c.bulk_load("t", {"k": np.arange(3000), "s": names})
result = c.query(LAggr(LScan("t", ["s"]), ["s"], [("n", "count", None)]))
print(json.dumps({
    "partition_ids": schema.partition_ids([names]).tolist(),
    "network_messages": result.network_messages,
    "links": [ex["links"] for ex in result.exchanges]}))
"""


class TestRoutingIgnoresTheHashSalt:
    def test_string_placement_and_routing_equal_across_processes(self):
        """Python salts ``hash(str)`` per process; partition placement and
        DXchg routing of string keys must not inherit that."""
        import json
        import os
        import subprocess
        import sys

        seen = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run(
                [sys.executable, "-c", _ROUTING_SCRIPT], env=env,
                capture_output=True, text=True, timeout=120, check=True)
            seen.append(json.loads(out.stdout))
        assert len(set(seen[0]["partition_ids"])) == 6
        assert seen[0]["network_messages"] > 0
        assert seen[0] == seen[1]


class TestExchanges:
    def test_gather_counts_network(self, cluster):
        result = cluster.query(LScan("t", ["k"]))
        assert result.batch.n == 600
        assert result.network_bytes > 0  # workers ship to the master

    def test_replicated_scan_no_network(self, cluster):
        cluster.mpi.reset()
        result = cluster.query(LScan("small", ["sk", "label"]))
        # replicated tables are cached everywhere: only the (free, local)
        # master handoff happens
        assert result.batch.n == 4

    def test_broadcast_replicates_build(self, cluster):
        plan = LJoin(build=LScan("small", ["sk", "label"]),
                     probe=LScan("t", ["k", "s"]),
                     build_keys=["sk"], probe_keys=["k"], how="semi")
        result = cluster.query(plan)
        assert result.batch.n == 4  # keys 0..3 exist in t

    @staticmethod
    def _scan(keys=("k",), co_location="t"):
        return P.PScan("t", ["k"], [], P.Distribution(
            P.PARTITIONED, tuple(keys), co_location=co_location))

    @staticmethod
    def _run(cluster, phys):
        """Hand-built physical trees run wrapped in a QueryPlan."""
        return cluster.query(QueryPlan(logical=None, root=phys))

    def test_aligned_split_routes_home(self, cluster):
        # reshuffling t on its own partition key with alignment moves
        # nothing across the network: only the final gather costs bytes,
        # the same bytes a plain scan's gather costs
        baseline = self._run(cluster, self._scan())
        phys = P.DXHashSplit(self._scan(), ["k"], align_with="t")
        result = self._run(cluster, phys)
        assert result.batch.n == 600
        assert result.network_bytes == baseline.network_bytes
        split_stats = next(ex for ex in result.exchanges
                           if "HashSplit" in str(ex["label"]))
        # everything the split moved stayed on-node (pointer passes)
        assert split_stats["local_bytes"] == split_stats["bytes"] > 0

    def test_unaligned_split_moves_data(self, cluster):
        baseline = self._run(cluster, self._scan())
        phys = P.DXHashSplit(self._scan(), ["k"])
        result = self._run(cluster, phys)
        assert result.batch.n == 600
        # the generic hash scatters rows away from their home nodes
        assert result.network_bytes > baseline.network_bytes


class TestDistributionCorrectness:
    def test_semi_join_no_duplicates_across_nodes(self, cluster):
        # semi joins against a broadcast build must not multiply rows
        plan = LJoin(build=LScan("small", ["sk"]),
                     probe=LScan("t", ["k"]),
                     build_keys=["sk"], probe_keys=["k"], how="semi")
        out = cluster.query(plan).batch
        assert sorted(out.columns["k"]) == [0, 1, 2, 3]

    def test_group_by_string_key_over_exchange(self, cluster):
        plan = LAggr(LScan("t", ["s"]), ["s"], [("n", "count", None)])
        out = cluster.query(plan).batch
        assert out.n == 4
        assert sorted(out.columns["n"]) == [150, 150, 150, 150]

    def test_project_drops_partition_property(self, cluster):
        plan = LAggr(
            LProject(LScan("t", ["k", "s"]), {"s": Col("s")}),
            ["s"], [("n", "count", None)])
        out = cluster.query(plan).batch
        assert int(sum(out.columns["n"])) == 600

    def test_empty_result_keeps_going(self, cluster):
        plan = LAggr(
            LSelect(LScan("t", ["k", "s"]), Col("k") > 10**9),
            ["s"], [("n", "count", None)])
        out = cluster.query(plan).batch
        assert out.n == 0
