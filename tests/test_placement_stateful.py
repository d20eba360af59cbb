"""Stateful test of partition placement: DDL and topology changes in any order.

A hypothesis state machine drives one 5-node cluster through
``create_table`` / ``drop_table`` with two partition counts,
``bulk_load``, ``fail_node`` (a ``DataLossError`` refusal is a legal
outcome, and must leave placement as it was), ``add_worker``,
``shrink_to_minimal_footprint`` and ``restore_full_footprint``, and
``propagate_updates`` (forced or not) between two committed ``UPDATE``s.
Each topology step is followed by a predicated scan and a committed
``UPDATE`` too; an ``UPDATE`` marks one key's rows with a fresh value that
no block holds. The model is the multiset of (key, value) rows of each
table. After every step:

* equal pids of a co-location group share one responsible node;
* every join of two tables of a group on their partition keys -- which
  the rewriter plans as a local join -- counts what the model says;
* every partition is local to its responsible node
  (``placement.audit()["overall"] == 1.0``);
* the replicated table ``d``, loaded once, reads whole;
* every value a PDT makes visible lies inside the MinMax range it lands
  in, and a scan pruning on the newest mark (``WHERE v >= mark``, above
  every range not widened for it) finds its rows: a node taking a
  partition over widens the logged MinMax again for the commits after it
  (they widened it in the failed node's memory).

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

from repro.chaos.invariants import minmax_pdt_gaps
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import DataLossError
from repro.common.types import INT64
from repro.sql import execute_sql
from repro.storage import Column, TableSchema

PARTITION_COUNTS = (4, 8)
MARK = 10 ** 6  # above every loaded value


class PlacementMachine(RuleBasedStateMachine):
    """Table ``t<i>`` has INT64 columns ``k<i>``, its partition key, and
    ``v<i>`` (loaded as ``k<i>``)."""

    def __init__(self):
        super().__init__()
        self.cluster = VectorHCluster(n_nodes=5,
                                      config=Config().scaled_for_tests())
        self.cluster.create_table(TableSchema("d", [Column("kd", INT64)]))
        self.cluster.bulk_load("d", {"kd": np.arange(50)})
        self.rows = {}          # table -> Counter of its (k, v) rows
        self.next_table = 0
        self.next_node = 6
        self.next_mark = MARK

    def _n_partitions(self, name):
        return self.cluster.tables[name].n_partitions

    def _owners(self, name):
        return [self.cluster.responsible(name, pid)
                for pid in range(self._n_partitions(name))]

    # ------------------------------------------------------------------ rules

    @precondition(lambda self: len(self.rows) < 4)
    @rule(n_partitions=st.sampled_from(PARTITION_COUNTS))
    def create_table(self, n_partitions):
        i = self.next_table
        self.next_table += 1
        self.cluster.create_table(TableSchema(
            f"t{i}", [Column(f"k{i}", INT64), Column(f"v{i}", INT64)],
            partition_key=(f"k{i}",), n_partitions=n_partitions))
        self.rows[f"t{i}"] = Counter()

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def drop_table(self, data):
        name = data.draw(st.sampled_from(sorted(self.rows)))
        self.cluster.drop_table(name)
        del self.rows[name]

    @precondition(lambda self: self.rows)
    @rule(data=st.data(), low=st.integers(0, 200), n=st.integers(1, 200))
    def bulk_load(self, data, low, n):
        name = data.draw(st.sampled_from(sorted(self.rows)))
        keys = np.arange(low, low + n)
        self.cluster.bulk_load(name, {"k" + name[1:]: keys,
                                      "v" + name[1:]: keys})
        self.rows[name].update(zip(keys.tolist(), keys.tolist()))

    @rule(force=st.booleans())
    def propagate_between_updates(self, force):
        """Propagation logs each propagated partition's MinMax to its WAL;
        the UPDATE after it widens MinMax in memory only."""
        self._mark_one_key()
        self.cluster.propagate_updates(force=force)
        self._mark_one_key()

    def _after_topology_step(self):
        """A predicated scan (the rows the last UPDATE marked, across the
        step), then a committed UPDATE."""
        self.a_scan_pruning_on_the_newest_mark_finds_it()
        self._mark_one_key()

    def _mark_one_key(self):
        """One committed UPDATE per table: ``v`` of the rows of its least
        key becomes a fresh mark."""
        for name in sorted(self.rows):
            rows = self.rows[name]
            if not rows:
                continue
            key = min(k for k, _ in rows)
            mark, self.next_mark = self.next_mark, self.next_mark + 1
            i = name[1:]
            execute_sql(self.cluster,
                        f"UPDATE {name} SET v{i} = {mark} WHERE k{i} = {key}")
            for k, v in [row for row in rows if row[0] == key]:
                rows[k, mark] += rows.pop((k, v))

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
        self._after_topology_step()

    @precondition(lambda self: len(self.cluster.workers) < 7)
    @rule()
    def add_worker(self):
        self.cluster.add_worker(f"node{self.next_node}")
        self.next_node += 1
        self._after_topology_step()

    @rule()
    def shrink_to_minimal_footprint(self):
        self.cluster.shrink_to_minimal_footprint()
        self._after_topology_step()

    @rule()
    def restore_full_footprint(self):
        self.cluster.restore_full_footprint()
        self._after_topology_step()

    # ------------------------------------------------------------- invariants

    @invariant()
    def groups_share_responsible_nodes(self):
        for count in PARTITION_COUNTS:
            owners = {tuple(self._owners(name)) for name in self.rows
                      if self._n_partitions(name) == count}
            assert len(owners) <= 1, owners

    @invariant()
    def colocated_joins_match_the_model(self):
        keys = {name: Counter(k for k, _ in rows.elements())
                for name, rows in self.rows.items()}
        for a, b in combinations(sorted(keys), 2):
            if self._n_partitions(a) != self._n_partitions(b):
                continue
            expected = sum(n * keys[b][k] for k, n in keys[a].items())
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

    @invariant()
    def minmax_covers_every_pdt_value(self):
        assert minmax_pdt_gaps(self.cluster) == []

    @invariant()
    def a_scan_pruning_on_the_newest_mark_finds_it(self):
        for name, rows in sorted(self.rows.items()):
            newest = max((v for _, v in rows), default=0)
            if newest < MARK:
                continue
            i = name[1:]
            out = execute_sql(
                self.cluster, f"SELECT k{i}, v{i} FROM {name} "
                              f"WHERE v{i} >= {newest}")
            found = Counter(zip(out.columns[f"k{i}"].tolist(),
                                out.columns[f"v{i}"].tolist()))
            assert found == Counter(
                {row: n for row, n in rows.items() if row[1] == newest}), name

PlacementMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=15, deadline=None)
TestPlacement = PlacementMachine.TestCase
