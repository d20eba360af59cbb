"""Tests for the MinMax MPI interface and dbAgent's automatic footprint."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.types import DATE, DECIMAL, INT64
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col
from repro.mpp.logical import LScan, LSelect
from repro.sql import execute_sql
from repro.storage import Column, TableSchema


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "events", [Column("k", INT64), Column("d", DATE)],
        clustered_on=("d",), partition_key=("k",), n_partitions=6))
    rng = np.random.default_rng(0)
    n = 60_000  # ~10k rows/partition: several date blocks each
    c.bulk_load("events", {
        "k": np.arange(n),
        "d": rng.integers(8000, 9000, n).astype(np.int32),
    })
    return c


class TestMinMaxInterface:
    def plan(self):
        return LSelect(
            LScan("events", ["k", "d"]),
            Col("d") < 8100)

    def test_all_partitions_answered(self, cluster):
        answers = cluster.resolve_minmax(self.plan())
        assert len(answers) == 6
        for key, ranges in answers.items():
            store = cluster.tables["events"].partitions[
                int(key.split("/")[1])]
            covered = sum(e - s for s, e in ranges)
            assert covered < store.n_stable  # skipping happened

    def test_single_interaction_per_remote_node(self, cluster):
        cluster.mpi.reset()
        cluster.resolve_minmax(self.plan())
        remote_nodes = {
            cluster.responsible("events", pid) for pid in range(6)
        } - {cluster.session_master}
        # exactly one request + one response per remote responsible node
        assert cluster.mpi.total_messages == 2 * len(remote_nodes)

    def test_no_predicates_no_traffic(self, cluster):
        cluster.mpi.reset()
        answers = cluster.resolve_minmax(LScan("events", ["k"]))
        assert answers == {}
        assert cluster.mpi.total_messages == 0

    def test_ranges_match_local_minmax(self, cluster):
        answers = cluster.resolve_minmax(self.plan())
        stored = cluster.tables["events"]
        for pid in range(6):
            store = stored.partitions[pid]
            local = store.minmax.qualifying_ranges(
                [("d", "<", 8100)], store.n_stable)
            assert answers[f"events/{pid}"] == local


class TestDecimalLiterals:
    """DECIMAL columns store fixed-point integers: a skip predicate's
    literal must be scaled the same way whether it was written ``24`` or
    ``24.0`` (the unscaled int used to prune every block)."""

    @pytest.fixture()
    def priced(self):
        c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
        c.create_table(TableSchema(
            "items", [Column("k", INT64), Column("qty", DECIMAL)],
            clustered_on=("qty",), partition_key=("k",), n_partitions=3))
        n = 30_000
        c.bulk_load("items", {
            "k": np.arange(n),
            "qty": (np.arange(n) % 50 + 1).astype(np.float64),
        })
        return c

    @staticmethod
    def _skipped(cluster) -> float:
        family = cluster.registry.get("minmax_blocks_skipped_total")
        return family.total() if family is not None else 0.0

    def test_int_and_float_literals_agree_through_sql(self, priced):
        runs = {}
        for literal in ("24", "24.0"):
            before = self._skipped(priced)
            batch = execute_sql(
                priced, f"SELECT k, qty FROM items WHERE qty < {literal}")
            runs[literal] = (batch, self._skipped(priced) - before)
        (as_int, skipped_int), (as_float, skipped_float) = runs.values()
        assert as_int.n == 30_000 * 23 // 50
        assert sorted(as_int.columns["k"]) == sorted(as_float.columns["k"])
        assert skipped_int == skipped_float > 0

    def test_int_and_float_literals_agree_through_resolve_minmax(
            self, priced):
        as_int = priced.resolve_minmax(
            LSelect(LScan("items", ["qty"]), Col("qty") < 24))
        as_float = priced.resolve_minmax(
            LSelect(LScan("items", ["qty"]), Col("qty") < 24.0))
        assert as_int == as_float
        assert all(ranges for ranges in as_int.values())


class TestAutomaticFootprint:
    def test_footprint_follows_load(self, cluster):
        agent = cluster.dbagent
        assert agent.auto_footprint(active_queries=0) == 1
        assert agent.auto_footprint(active_queries=6) == 3
        assert agent.auto_footprint(active_queries=100,
                                    max_slices=4) == 4
        assert agent.auto_footprint(active_queries=1) == 1

    def test_footprint_shrinks_back(self, cluster):
        agent = cluster.dbagent
        agent.auto_footprint(active_queries=8)
        grown = len(agent.slices)
        agent.auto_footprint(active_queries=0)
        assert len(agent.slices) < grown
