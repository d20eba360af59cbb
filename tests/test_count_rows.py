"""A count reads no column.

``SELECT count(*) FROM t`` plans a scan of no column. Such a scan decodes
no block: a partition's row count is its stable rows, less the stable
rows its reader's PDT entries delete, plus their live inserts. Every
answer here equals the row engine's over a model of the rows.

A read with no writes of its own shares the merge plan of its snapshot's
PDT layers: reads between two commits classify a partition's entries
once, and a reader suspended across a commit keeps its own snapshot.
"""

from collections import Counter

import numpy as np
import pytest

import repro.storage.table as table_module
from repro.baselines import CompetitorSystem
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.types import INT64
from repro.engine.expressions import Col, Const, InList
from repro.mpp.executor import StreamingScan
from repro.mpp.logical import LScan
from repro.sql.binder import _SelectBinder
from repro.sql.parser import SqlParser
from repro.storage import Column, TableSchema
from repro.storage.colstore import PartitionStore
from repro.storage.table import StoredTable

#: rows per block of an INT64 column at the test block size (16 KB)
BLOCK_ROWS = 2048
#: stable keys are multiples of 3: any other key is anchored inside them
N_STABLE = 4 * 3 * BLOCK_ROWS
END = 3 * N_STABLE
COUNT = "SELECT count(*) AS n FROM t"


class Model:
    """The live rows of ``t`` as ``{a: b}``, beside a cluster."""

    def __init__(self):
        self.cluster = VectorHCluster(n_nodes=2,
                                      config=Config().scaled_for_tests())
        self.cluster.create_table(TableSchema(
            "t", [Column("a", INT64), Column("b", INT64)],
            partition_key=("a",), clustered_on=("a",), n_partitions=4))
        a = np.arange(0, END, 3)
        self.cluster.bulk_load("t", {"a": a, "b": a % 10})
        self.rows = dict(zip(a.tolist(), (a % 10).tolist()))

    def insert(self, keys, trans=None):
        keys = np.asarray(keys)
        self.cluster.insert("t", {"a": keys, "b": keys % 7}, trans=trans,
                            force_pdt=True)
        self.rows.update(zip(keys.tolist(), (keys % 7).tolist()))

    def delete(self, keys, trans=None):
        self.cluster.delete_where("t", InList(Col("a"), list(keys)),
                                  trans=trans)
        for key in keys:
            del self.rows[key]

    def modify(self, key, b):
        self.cluster.update_where("t", Col("a") == key, {"b": Const(b)})
        self.rows[key] = b

    def oracle(self) -> int:
        """The row engine's count over the model's rows."""
        system = CompetitorSystem("hive", workers=3, rows_per_group=1024)
        system.load({"t": {
            "a": np.array(list(self.rows), dtype=np.int64),
            "b": np.array(list(self.rows.values()), dtype=np.int64)}})
        return int(system.run(_logical(self.cluster, COUNT)).columns["n"][0])


def _logical(cluster, sql: str):
    return _SelectBinder(cluster, SqlParser(sql).parse()).plan()


def _count(cluster, trans=None) -> int:
    result = cluster.query(_logical(cluster, COUNT), trans=trans)
    return int(result.batch.columns["n"][0])


@pytest.fixture()
def decoded(monkeypatch):
    """Blocks decoded per column."""
    counts = Counter()
    read_block = PartitionStore._read_block

    def counting_read(self, ref, *args, **kwargs):
        counts[ref.column] += 1
        return read_block(self, ref, *args, **kwargs)

    monkeypatch.setattr(PartitionStore, "_read_block", counting_read)
    return counts


class TestCountStar:
    def test_the_scan_reads_no_column(self):
        model = Model()
        plan = _logical(model.cluster, COUNT)
        scans = [n for n in plan.walk() if isinstance(n, LScan)]
        assert [s.columns for s in scans] == [[]]

    def test_deletes_and_inserts_in_one_block_range(self):
        model = Model()
        model.delete(range(0, 600, 6))
        model.insert(range(1, 600, 3))
        stored = model.cluster.table("t")
        both = 0
        for pid, store in enumerate(stored.partitions):
            edge = store.blocks["a"][0].n_rows
            piece = stored._merge_plan(pid)[0].within(0, edge)
            both += bool(len(piece.deleted) and len(piece.targets))
        assert both
        assert _count(model.cluster) == model.oracle() == N_STABLE - 100 + 200

    def test_inserts_inside_the_partition_and_past_its_end(self):
        model = Model()
        model.insert(range(1, END, 999))
        model.insert(range(END, END + 50))
        stored = model.cluster.table("t")
        for pid, store in enumerate(stored.partitions):
            anchors = stored._merge_plan(pid)[0].anchors
            assert anchors[0] < store.n_stable <= anchors[-1]
        assert _count(model.cluster) == model.oracle()

    def test_an_insert_deleted_again_and_a_modified_row(self, decoded):
        model = Model()
        model.insert([1, 4, 7, END + 1, END + 3])
        model.delete([4, END + 3, 9])
        model.modify(12, 99)
        model.modify(7, 98)
        decoded.clear()
        assert _count(model.cluster) == model.oracle()
        assert model.cluster.table("t").total_rows() == len(model.rows)
        assert not decoded

    def test_inside_a_transaction_with_its_own_writes(self):
        model = Model()
        model.insert([1, END + 1])
        committed = dict(model.rows)
        txn = model.cluster.begin()
        model.insert([2, 10, END + 5], trans=txn)
        model.delete([1, 3, 6], trans=txn)
        assert _count(model.cluster, trans=txn) == model.oracle()
        assert _count(model.cluster) == len(committed)
        txn.commit()
        assert _count(model.cluster) == model.oracle()

    def test_the_count_decodes_no_block(self, decoded):
        model = Model()
        model.delete(range(0, 600, 6))
        model.insert(range(1, 600, 3))
        decoded.clear()
        assert _count(model.cluster) == model.oracle()
        assert sum(decoded.values()) == 0


@pytest.mark.parametrize("n_nodes, n_partitions, empties", [(2, 4, 0),
                                                             (3, 2, 1)])
def test_only_a_stream_that_owns_no_partition_sends_an_empty_batch(
        monkeypatch, n_nodes, n_partitions, empties):
    """A scan of no column hands on pieces without columns; they count as
    output, so only the stream owning none sends the typed empty batch."""
    cluster = VectorHCluster(n_nodes=n_nodes,
                             config=Config().scaled_for_tests())
    cluster.create_table(TableSchema(
        "t", [Column("a", INT64), Column("b", INT64)],
        partition_key=("a",), n_partitions=n_partitions))
    a = np.arange(10_000)
    cluster.bulk_load("t", {"a": a, "b": a % 10})
    empty_on = []
    typed_empty = StreamingScan._typed_empty

    def spy(self):
        empty_on.append(self.node)
        return typed_empty(self)

    monkeypatch.setattr(StreamingScan, "_typed_empty", spy)
    assert cluster.query(LScan("t", [])).batch.n == 10_000
    assert len(empty_on) == empties
    assert not set(empty_on) & set(cluster.placement.owners("t"))


class TestIdentitiesOfNoColumn:
    def test_every_live_identity_pdt_inserts_included(self):
        model = Model()
        model.insert([1, 2, END + 1])
        model.delete([0, 2])
        stored = model.cluster.table("t")
        total = 0
        for pid in range(stored.n_partitions):
            bare = stored.scan_partition(pid, [])
            full = stored.scan_partition(pid, ["a"])
            assert bare.columns == {}
            assert sorted(bare.identities.tolist()) == \
                sorted(full.identities.tolist())
            assert bare.n_rows == len(bare.identities)
            total += bare.n_rows
        assert total == len(model.rows)
        inserted = {int(code) for pid in range(stored.n_partitions)
                    for code in stored.scan_partition(pid, []).identities
                    if code < 0}
        assert len(inserted) == 2


class TestSnapshotPlanCache:
    def test_reads_between_commits_classify_a_partition_once(
            self, monkeypatch):
        model = Model()
        model.insert(range(1, 600, 3))
        model.delete(range(0, 600, 12))
        calls = []
        classify = table_module.classify_entries

        def counting(entries):
            calls.append(len(entries))
            return classify(entries)

        monkeypatch.setattr(table_module, "classify_entries", counting)
        stored = model.cluster.table("t")
        with_entries = sum(bool(stack.total_entries())
                           for stack in stored.pdt)
        for _ in range(5):
            assert _count(model.cluster) == len(model.rows)
            batch = model.cluster.query(LScan("t", ["a", "b"])).batch
            assert batch.n == len(model.rows)
        assert 0 < len(calls) <= with_entries
        calls.clear()
        model.insert([END + 1])
        for _ in range(5):
            assert _count(model.cluster) == len(model.rows)
        assert len(calls) <= with_entries

    def test_a_suspended_reader_keeps_its_snapshot(self, monkeypatch):
        model = Model()
        model.insert(range(1, 300, 3))
        cluster = model.cluster
        handed = []
        pieces = StoredTable.scan_pieces

        def counting_pieces(self, pid, *args, **kwargs):
            for piece in pieces(self, pid, *args, **kwargs):
                handed.append(piece.n_rows)
                yield piece

        monkeypatch.setattr(StoredTable, "scan_pieces", counting_pieces)
        rows = sorted(model.rows.items())
        count_q = cluster.submit(_logical(cluster, COUNT))
        rows_q = cluster.submit(LScan("t", ["a", "b"]))
        while len(handed) < 2:
            cluster.workload.step()
        assert cluster.workload.is_live(count_q)
        assert cluster.workload.is_live(rows_q)
        model.insert(range(301, 600, 3))
        model.delete(range(0, 150, 3))
        # a fresh read caches the plan of the new layers first
        assert _count(cluster) == len(model.rows)
        assert int(cluster.gather(count_q).batch.columns["n"][0]) == len(rows)
        batch = cluster.gather(rows_q).batch
        assert sorted(zip(batch.columns["a"].tolist(),
                          batch.columns["b"].tolist())) == rows
        assert _count(cluster) == model.oracle()
