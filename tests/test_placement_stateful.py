"""Stateful test of partition placement: DDL and topology changes in any order.

A hypothesis state machine drives one 5-node cluster through
``create_table`` / ``drop_table`` with two partition counts,
``bulk_load``, ``fail_node`` (a ``DataLossError`` refusal is a legal
outcome, and must leave placement as it was), ``add_worker``,
``shrink_to_minimal_footprint`` and ``restore_full_footprint``. The
model is the multiset of keys loaded into each table. After every step:

* equal pids of a co-location group share one responsible node;
* every join of two tables of a group on their partition keys -- which
  the rewriter plans as a local join -- counts what the model says;
* every partition is local to its responsible node
  (``placement.audit()["overall"] == 1.0``);
* the replicated table ``d``, loaded once, reads whole.

While each table kept its own copy of the group's map, a table created
after any topology change broke the first two.
"""

from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import DataLossError
from repro.common.types import INT64
from repro.sql import execute_sql
from repro.storage import Column, TableSchema

PARTITION_COUNTS = (4, 8)


class PlacementMachine(RuleBasedStateMachine):
    """Table ``t<i>`` has one INT64 column ``k<i>``, its partition key."""

    def __init__(self):
        super().__init__()
        self.cluster = VectorHCluster(n_nodes=5,
                                      config=Config().scaled_for_tests())
        self.cluster.create_table(TableSchema("d", [Column("kd", INT64)]))
        self.cluster.bulk_load("d", {"kd": np.arange(50)})
        self.keys = {}          # table -> Counter of the keys loaded
        self.next_table = 0
        self.next_node = 6

    def _n_partitions(self, name):
        return self.cluster.tables[name].n_partitions

    def _owners(self, name):
        return [self.cluster.responsible(name, pid)
                for pid in range(self._n_partitions(name))]

    # ------------------------------------------------------------------ rules

    @precondition(lambda self: len(self.keys) < 4)
    @rule(n_partitions=st.sampled_from(PARTITION_COUNTS))
    def create_table(self, n_partitions):
        i = self.next_table
        self.next_table += 1
        self.cluster.create_table(TableSchema(
            f"t{i}", [Column(f"k{i}", INT64)], partition_key=(f"k{i}",),
            n_partitions=n_partitions))
        self.keys[f"t{i}"] = Counter()

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def drop_table(self, data):
        name = data.draw(st.sampled_from(sorted(self.keys)))
        self.cluster.drop_table(name)
        del self.keys[name]

    @precondition(lambda self: self.keys)
    @rule(data=st.data(), low=st.integers(0, 200), n=st.integers(1, 200))
    def bulk_load(self, data, low, n):
        name = data.draw(st.sampled_from(sorted(self.keys)))
        keys = np.arange(low, low + n)
        self.cluster.bulk_load(name, {"k" + name[1:]: keys})
        self.keys[name].update(keys.tolist())

    @precondition(lambda self: len(self.cluster.workers) > 2)
    @rule(data=st.data())
    def fail_node(self, data):
        victim = data.draw(st.sampled_from(self.cluster.workers))
        workers = list(self.cluster.workers)
        groups = dict(self.cluster.placement.groups)
        try:
            self.cluster.fail_node(victim)
        except DataLossError:
            assert self.cluster.workers == workers
            assert self.cluster.placement.groups == groups

    @precondition(lambda self: len(self.cluster.workers) < 7)
    @rule()
    def add_worker(self):
        self.cluster.add_worker(f"node{self.next_node}")
        self.next_node += 1

    @rule()
    def shrink_to_minimal_footprint(self):
        self.cluster.shrink_to_minimal_footprint()

    @rule()
    def restore_full_footprint(self):
        self.cluster.restore_full_footprint()

    # ------------------------------------------------------------- invariants

    @invariant()
    def groups_share_responsible_nodes(self):
        for count in PARTITION_COUNTS:
            owners = {tuple(self._owners(name)) for name in self.keys
                      if self._n_partitions(name) == count}
            assert len(owners) <= 1, owners

    @invariant()
    def colocated_joins_match_the_model(self):
        for a, b in combinations(sorted(self.keys), 2):
            if self._n_partitions(a) != self._n_partitions(b):
                continue
            expected = sum(n * self.keys[b][k]
                           for k, n in self.keys[a].items())
            out = execute_sql(
                self.cluster, f"SELECT count(*) AS n FROM {a} JOIN {b} "
                              f"ON k{a[1:]} = k{b[1:]}")
            assert out.columns["n"].tolist() == [expected], (a, b)

    @invariant()
    def every_partition_is_local(self):
        assert self.cluster.placement.audit()["overall"] == 1.0

    @invariant()
    def replicated_table_reads_whole(self):
        out = execute_sql(self.cluster, "SELECT count(*) AS n FROM d")
        assert out.columns["n"].tolist() == [50]


PlacementMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=15, deadline=None)
TestPlacement = PlacementMachine.TestCase
