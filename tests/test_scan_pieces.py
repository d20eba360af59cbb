"""The streamed scan: a partition is read one piece at a time -- at most
a block of the coarsest column it reads, cut where a MinMax range ends or
the filter drops a run of rows -- and each piece goes up the pipeline as
one vector, with or without visible PDT entries, which are applied to
the piece they touch. A finer column's blocks are each decoded once, a
block straddling a piece's end for both pieces.

``LIMIT`` stops the decoding, not only the rows; and a propagation or a
large insert asked for while a query is inside its partitions leaves
them alone instead of deleting the blocks (or folding in the PDT
entries) the query's pinned snapshot still reads.
"""

from collections import Counter

import numpy as np
import pytest

from repro.baselines import CompetitorSystem
from repro.cluster import VectorHCluster
from repro.cluster.vectorh import DIRECT_APPEND_THRESHOLD
from repro.common.config import Config
from repro.common.errors import StorageError
from repro.common.types import DATE, INT64, STRING
from repro.engine.expressions import Col, InList
from repro.mpp.logical import LLimit, LScan, LSelect
from repro.sql import execute_sql
from repro.sql.binder import _SelectBinder
from repro.sql.parser import SqlParser
from repro.storage import Column, TableSchema
from repro.storage.colstore import BlockCursor, PartitionStore
from repro.storage.minmax import OPS
from repro.storage.table import StoredTable

#: rows per block of an INT64 column at the test block size (16 KB)
BLOCK_ROWS = 2048


def _cluster(blocks_per_partition: int = 6) -> VectorHCluster:
    c = VectorHCluster(n_nodes=2, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("a", INT64), Column("b", INT64)],
        partition_key=("a",), n_partitions=4))
    a = np.arange(4 * blocks_per_partition * BLOCK_ROWS)
    c.bulk_load("t", {"a": a, "b": a % 10})
    return c


@pytest.fixture()
def spied(monkeypatch):
    """Blocks decoded per column, the partitions whose scan started and
    the pieces handed on."""
    decoded, started, handed = Counter(), [], []
    read_block = PartitionStore._read_block

    def counting_read(self, ref, *args, **kwargs):
        decoded[ref.column] += 1
        return read_block(self, ref, *args, **kwargs)

    pieces = StoredTable.scan_pieces

    def counting_pieces(self, pid, *args, **kwargs):
        started.append(pid)
        for piece in pieces(self, pid, *args, **kwargs):
            handed.append(piece.n_rows)
            yield piece

    monkeypatch.setattr(PartitionStore, "_read_block", counting_read)
    monkeypatch.setattr(StoredTable, "scan_pieces", counting_pieces)
    return decoded, started, handed


class TestLimitStopsDecoding:
    def test_a_limit_over_the_scan_decodes_one_block_per_column(self, spied):
        c = _cluster()
        decoded, started, _ = spied
        assert c.query(LLimit(LScan("t", ["a", "b"]), 10)).batch.n == 10
        assert 0 < len(started) <= 4
        # every stream that ran handed on one piece at most
        assert decoded["a"] <= len(started)
        assert decoded["b"] <= len(started)

    def test_a_select_between_keeps_the_payload_lazy(self, spied):
        """The predicate column is decoded for the partition's mask; the
        payload column only for the pieces handed on."""
        c = _cluster()
        decoded, started, _ = spied
        plan = LLimit(LSelect(LScan("t", ["a", "b"]), Col("b") > 0), 10)
        assert c.query(plan).batch.n == 10
        assert 0 < len(started) <= 4
        assert decoded["a"] <= len(started)


    def test_a_limit_over_partitions_with_entries_decodes_one_block(
            self, spied):
        """A delete in every block-range, inserts past the end and an
        update: each piece takes its own entries, so the first piece
        handed on still reads one block per column."""
        c = _cluster()
        table = c.table("t")
        for pid in range(table.n_partitions):
            a = table.scan_partition(pid, ["a"]).columns["a"]
            for ref in table.partitions[pid].blocks["a"]:
                c.delete_where("t", Col("a") == int(a[ref.row_start]))
        end = 4 * 6 * BLOCK_ROWS
        c.insert("t", {"a": np.arange(end, end + 8),
                       "b": np.arange(8) % 10}, force_pdt=True)
        c.update_where("t", Col("a") == 5, {"b": Col("b") + 100})
        assert all(table.pdt[pid].total_entries()
                   for pid in range(table.n_partitions))
        decoded, started, _ = spied
        decoded.clear()
        started.clear()
        assert c.query(LLimit(LScan("t", ["a", "b"]), 10)).batch.n == 10
        assert 0 < len(started) <= 4
        assert decoded["a"] <= len(started)
        assert decoded["b"] <= len(started)


class TestPieces:
    def test_one_piece_per_block_range(self):
        c = _cluster(blocks_per_partition=3)
        table = c.table("t")
        for pid in range(table.n_partitions):
            store = table.partitions[pid]
            pieces = list(table.scan_pieces(pid, ["a", "b"]))
            assert [p.n_rows for p in pieces] == \
                [ref.n_rows for ref in store.blocks["a"]]
            assert all(p.identities is None for p in pieces)
            whole = table.scan_partition(pid, ["a", "b"])
            assert np.concatenate([p.columns["a"] for p in pieces]).tolist() \
                == whole.columns["a"].tolist()
            assert whole.identities.tolist() == list(range(store.n_stable))

    def test_a_partition_without_survivors_hands_on_one_empty_piece(self):
        table = _cluster(blocks_per_partition=2).table("t")
        pieces = list(table.scan_pieces(0, ["a"], [("b", ">", 100)]))
        assert [p.n_rows for p in pieces] == [0]
        assert pieces[0].columns["a"].dtype == np.int64


class TestDmlStreamsPieces:
    """DELETE and UPDATE change rows piece by piece: the scan fixed its
    entries at its first piece, so a row a statement changed is not read
    (and changed) again."""

    def test_delete_and_update_match_the_row_engine(self, monkeypatch):
        c = VectorHCluster(n_nodes=2, config=Config().scaled_for_tests())
        c.create_table(TableSchema(
            "t", [Column("a", INT64), Column("b", INT64)],
            partition_key=("a",), clustered_on=("a",), n_partitions=4))
        # stable keys are multiples of 3, three block-ranges a partition
        n_stable = 4 * 3 * BLOCK_ROWS
        a = np.arange(0, 3 * n_stable, 3)
        c.bulk_load("t", {"a": a, "b": a % 10})
        rows = dict(zip(a.tolist(), (a % 10).tolist()))
        # PDT inserts anchored inside every block-range, and deletes
        inserted = np.arange(1, 3 * n_stable, 3 * 97)
        c.insert("t", {"a": inserted, "b": inserted % 7}, force_pdt=True)
        rows.update(zip(inserted.tolist(), (inserted % 7).tolist()))
        gone = list(range(0, 3 * n_stable, 3 * 89))
        c.delete_where("t", InList(Col("a"), gone))
        for key in gone:
            del rows[key]

        handed = Counter()
        pieces = StoredTable.scan_pieces

        def counting_pieces(self, pid, *args, **kwargs):
            for piece in pieces(self, pid, *args, **kwargs):
                handed[pid] += 1
                yield piece

        def no_eager_scan(*args, **kwargs):
            raise AssertionError("DML read a partition eagerly")

        with monkeypatch.context() as patch:
            patch.setattr(StoredTable, "scan_pieces", counting_pieces)
            patch.setattr(StoredTable, "scan_partition", no_eager_scan)
            deleted = execute_sql(c, "DELETE FROM t WHERE b = 3")
            updated = execute_sql(c, "UPDATE t SET b = b + 10 WHERE b >= 5")
        assert min(handed.values()) >= 2 * 3
        assert deleted == sum(b == 3 for b in rows.values())
        rows = {k: b for k, b in rows.items() if b != 3}
        assert updated == sum(b >= 5 for b in rows.values())
        rows = {k: b + 10 if b >= 5 else b for k, b in rows.items()}

        oracle = CompetitorSystem("hive", workers=3, rows_per_group=1024)
        oracle.load({"t": {
            "a": np.array(list(rows), dtype=np.int64),
            "b": np.array(list(rows.values()), dtype=np.int64)}})
        for sql in ("SELECT a, b FROM t",
                    "SELECT b, count(*) AS n, sum(a) AS s FROM t GROUP BY b"):
            logical = _SelectBinder(c, SqlParser(sql).parse()).plan()
            got = c.query(logical).batch
            expected = oracle.run(logical)
            assert sorted(zip(*(got.columns[k].tolist() for k in got.columns))) \
                == sorted(zip(*(expected.columns[k].tolist()
                                for k in got.columns)))
        assert len(_answer(c.query(_rows_plan()))) == len(rows)


#: a block size whose rows per block do not divide each other: 375 for
#: INT64, 750 for DATE, 187 for STRING -- block edges do not nest
ODD_BLOCK_SIZE = 3000
WIDE = ["a", "d", "s"]
#: past every stable key of the clustered table
TOP = 3 * 5200


def _odd_blocks(clustered: bool) -> VectorHCluster:
    """Table ``w``: two partitions unordered; one clustered on ``a``, so
    every insert lands in the partition whose edges a test aims at."""
    config = Config().scaled_for_tests()
    config.block_size = ODD_BLOCK_SIZE
    c = VectorHCluster(n_nodes=2, config=config)
    c.create_table(TableSchema(
        "w", [Column("a", INT64), Column("d", DATE), Column("s", STRING)],
        partition_key=("a",), n_partitions=1 if clustered else 2,
        clustered_on=("a",) if clustered else ()))
    return c


def _wide_rows(a):
    return {"a": a, "d": (8000 + a // 7).astype(np.int32),
            "s": np.array([f"s{v % 13}" for v in a.tolist()], dtype=object)}


def _appended() -> VectorHCluster:
    """Unordered, loaded twice: the second load is an append that
    re-blocks each column's partial block from that column's own row."""
    c = _odd_blocks(clustered=False)
    c.bulk_load("w", _wide_rows(np.arange(0, 2 * 1000)))
    c.bulk_load("w", _wide_rows(np.arange(2 * 1000, 2 * 2900)))
    return c


def _clustered() -> VectorHCluster:
    """Clustered on ``a``; stable keys are multiples of 3."""
    c = _odd_blocks(clustered=True)
    c.bulk_load("w", _wide_rows(np.arange(0, TOP, 3)))
    return c


def _starts(store, name):
    return [ref.row_start for ref in store.blocks[name]]


def _oracle(c, sqls):
    """Every ``sqls`` answer of the cluster and of the row engine."""
    table = c.table("w")
    rows = [table.scan_partition(pid, WIDE)
            for pid in range(table.n_partitions)]
    oracle = CompetitorSystem("hive", workers=3, rows_per_group=1024)
    oracle.load({"w": {
        name: np.concatenate([np.asarray(r.columns[name]) for r in rows])
        for name in WIDE}})
    for sql in sqls:
        logical = _SelectBinder(c, SqlParser(sql).parse()).plan()
        result = c.query(logical)
        expected = oracle.run(logical).columns
        assert _answer(result) == sorted(
            zip(*(expected[k].tolist() for k in result.batch.columns))), sql
    return rows


SQLS = ("SELECT a, d, s FROM w",
        "SELECT s, count(*) AS n, sum(a) AS t, min(d) AS e FROM w GROUP BY s",
        "SELECT a, s FROM w WHERE d >= 8100 AND d < 8300",
        f"SELECT count(*) AS n FROM w WHERE a >= {TOP - 300}")


class TestCoarsestColumnPieces:
    """Pieces are cut at the block edges of the column read with the
    fewest blocks, whose edges a finer column's need not share."""

    def test_pieces_end_at_the_coarsest_edges_or_a_range_end(
            self, monkeypatch):
        """A piece -- the rows a payload column is read for -- ends at an
        edge of the coarsest column read or where a MinMax range ends;
        with a filter also where a run of rows none of which passes it
        begins, and no row that passes is left out."""
        c = _appended()
        table = c.table("w")
        reads = []
        read = BlockCursor.read

        def spying_read(self, lo, hi):
            reads.append((self._refs[0].column, lo, hi))
            return read(self, lo, hi)

        monkeypatch.setattr(BlockCursor, "read", spying_read)
        for pid in range(2):
            store = table.partitions[pid]
            d, s = _starts(store, "d"), _starts(store, "s")
            assert len(d) >= 3 and set(s) - set(d) and set(d) - set(s)
            # the append re-blocked each column from its own row
            assert set(_starts(store, "a")) - set(d)
            whole = table.scan_partition(pid, WIDE).columns
            for columns, predicates in (
                    (WIDE, ()), (["s"], ()), (["a", "s"], ()),
                    (["s"], [("a", ">=", 1000), ("a", "<", 3000)]),
                    (["s", "a"], [("d", ">=", 8150)])):
                coarsest = min(dict.fromkeys(
                    list(columns) + [col for col, _, _ in predicates]),
                    key=lambda name: len(store.blocks[name]))
                edges = set(_starts(store, coarsest))
                ranges = store.minmax.qualifying_ranges(
                    table.storage_predicates(predicates), store.n_stable)
                passes = np.ones(store.n_stable, dtype=bool)
                for col, op, literal in predicates:
                    passes &= OPS[op](np.asarray(whole[col]), literal)
                reads.clear()
                assert len(list(table.scan_pieces(pid, columns,
                                                  predicates))) > 1
                spans = [(lo, hi) for name, lo, hi in reads if name == "s"]
                assert spans == sorted(spans) and len(spans) > 1
                read_rows = np.zeros(store.n_stable, dtype=bool)
                for lo, hi in spans:
                    read_rows[lo:hi] = True
                    assert not edges & set(range(lo + 1, hi))
                    assert hi in edges | {end for _, end in ranges} \
                        or not passes[hi]
                    assert lo in edges | {start for start, _ in ranges} \
                        or not passes[lo - 1]
                assert not (passes & ~read_rows).any()
                if not predicates:
                    assert read_rows.all()

    def test_a_piece_spans_several_blocks_of_a_finer_column(self):
        table = _appended().table("w")
        store = table.partitions[0]
        pieces = list(table.scan_pieces(0, ["s", "d"], identities=True))
        assert len(pieces) == len(store.blocks["d"])
        assert len(pieces) < len(store.blocks["s"])
        whole = table.scan_partition(0, ["s", "d"])
        assert [v for p in pieces for v in p.columns["s"].tolist()] == \
            whole.columns["s"].tolist() == [
                f"s{v % 13}" for v in table.scan_partition(
                    0, ["a"]).columns["a"].tolist()]

    @pytest.mark.parametrize("predicates", [(), [("d", ">=", 8150)],
                                            [("s", "=", "s3")]])
    def test_every_block_is_decoded_once(self, monkeypatch, predicates):
        c = _appended()
        table = c.table("w")
        c.update_where("w", Col("a") < 40, {"d": Col("d") + 1})
        decoded = Counter()
        read_block = PartitionStore._read_block

        def counting_read(self, ref, *args, **kwargs):
            decoded[ref.column, ref.row_start] += 1
            return read_block(self, ref, *args, **kwargs)

        monkeypatch.setattr(PartitionStore, "_read_block", counting_read)
        for pid in range(2):
            decoded.clear()
            store = table.partitions[pid]
            ranges = store.minmax.qualifying_ranges(
                table.storage_predicates(predicates), store.n_stable)
            pieces = list(table.scan_pieces(pid, WIDE, predicates))
            assert len(pieces) > 1
            assert set(decoded.values()) == {1}
            # the predicate columns over the whole ranges, the others
            # over the pieces' rows
            for name, _, _ in predicates:
                assert sum(k[0] == name for k in decoded) == \
                    store.blocks_overlapping(name, ranges)
            if not predicates:
                for name in WIDE:
                    assert sum(k[0] == name for k in decoded) == \
                        len(store.blocks[name])

    def test_entries_at_piece_edges_match_the_row_engine(self):
        """Inserts anchored at each piece's first row, deletes and
        modifies of the rows on both sides of every edge, inserts past
        the last stable row, and a filter no stable row passes."""
        c = _clustered()
        table = c.table("w")
        store = table.partitions[0]
        keys = table.scan_partition(0, ["a"]).columns["a"]
        edges = _starts(store, "d")[1:]
        assert len(edges) >= 4
        # keys between two stable ones: anchored at the edge
        c.insert("w", _wide_rows(np.concatenate(
            [keys[edges] - 1, keys[edges] - 2])), force_pdt=True)
        c.delete_where("w", InList(Col("a"), keys[
            [0] + edges + [e - 1 for e in edges]].tolist()))
        c.update_where("w", InList(Col("a"), keys[
            [e + 1 for e in edges] + [e - 2 for e in edges]].tolist()),
            {"d": Col("d") + 500, "s": Col("s")})
        past = np.arange(TOP, TOP + 40)
        c.insert("w", _wide_rows(past), force_pdt=True)
        codes = table.scan_partition(0, ["a"]).identities
        anchors = table.pdt[0].begin().anchors_of(codes[codes < 0])
        assert set(edges) <= set(anchors.tolist())
        rows = _oracle(c, SQLS)
        inserted, deleted = 2 * len(edges) + len(past), 1 + 2 * len(edges)
        assert len(rows[0].columns["a"]) == len(keys) + inserted - deleted
        # no stable row qualifies: one empty piece carries the inserts
        # past the end
        pieces = list(table.scan_pieces(0, ["a"], [("a", ">=", TOP)]))
        assert [p.n_rows for p in pieces] == [len(past)]
        assert pieces[0].columns["a"].tolist() == past.tolist()

    def test_dml_streams_the_pieces_and_matches_the_row_engine(
            self, monkeypatch):
        c = _clustered()
        table = c.table("w")
        c.insert("w", _wide_rows(np.arange(1, TOP + 300, 3 * 37)),
                 force_pdt=True)
        c.delete_where("w", InList(Col("a"), list(range(0, TOP, 3 * 41))))
        handed = Counter()
        pieces = StoredTable.scan_pieces

        def counting_pieces(self, pid, *args, **kwargs):
            for piece in pieces(self, pid, *args, **kwargs):
                handed[pid, kwargs.get("identities", False)] += 1
                yield piece

        def no_eager_scan(*args, **kwargs):
            raise AssertionError("DML read a partition eagerly")

        with monkeypatch.context() as patch:
            patch.setattr(StoredTable, "scan_pieces", counting_pieces)
            patch.setattr(StoredTable, "scan_partition", no_eager_scan)
            deleted = execute_sql(c, "DELETE FROM w WHERE s = 's3'")
            updated = execute_sql(
                c, "UPDATE w SET d = d + 1000 WHERE s >= 's7'")
        assert deleted and updated
        assert min(n for (_, ident), n in handed.items() if ident) >= 2
        rows = _oracle(c, SQLS)
        assert not any("s3" == v for r in rows for v in r.columns["s"])


def _rows_plan():
    return LScan("t", ["a", "b"])


def _answer(result):
    return sorted(zip(*(v.tolist() for v in result.batch.columns.values())))


class TestPropagationLeavesARunningScan:
    @pytest.mark.parametrize("entries_first", [True, False])
    def test_answer_is_the_snapshot_s(self, spied, entries_first):
        """A query is inside its partitions (the first piece handed on,
        not the last) when ``propagate_updates(force=True)`` runs: the
        partitions it pinned are left for a later call, where they are
        still due. With entries committed before the query the scan
        applies them piece by piece; committed after its first piece, the
        pinned snapshot has none. Either way the scan streams blocks a
        rewrite would delete."""
        c = _cluster()
        _, _, handed = spied

        def write():
            c.update_where("t", Col("a") < 3000, {"b": Col("b") + 1000})
            c.insert("t", {"a": np.array([-1, -2]), "b": np.array([5, 6])},
                     force_pdt=True)

        if entries_first:
            write()
        expected = _answer(c.query(_rows_plan()))
        handed.clear()
        qid = c.submit(_rows_plan())
        while not handed:
            c.workload.step()
        assert c.workload.is_live(qid)
        assert len(handed) < 4 * 6  # partitions x pieces
        if not entries_first:
            write()
        stored = c.table("t")
        due = [pid for pid in range(stored.n_partitions)
               if stored.pdt[pid].total_entries()]
        assert due
        c.propagate_updates(force=True)
        assert all(stored.pdt[pid].total_entries() for pid in due)
        assert _answer(c.gather(qid)) == expected
        after = _answer(c.query(_rows_plan()))
        c.propagate_updates(force=True)
        assert not any(stored.pdt[pid].total_entries() for pid in due)
        assert _answer(c.query(_rows_plan())) == after


class TestDirectAppendUnderARunningScan:
    """A large insert into an unordered table is a direct append, which
    absorbs the partition's partial blocks. While a running query reads
    the table the insert goes through the PDT instead, and a bulk load
    into a partition the query reads is refused."""

    def _running_scan(self, c, handed):
        expected = _answer(c.query(_rows_plan()))
        handed.clear()
        qid = c.submit(_rows_plan())
        while len(handed) < 2:
            c.workload.step()
        assert c.workload.is_live(qid)
        return qid, expected

    def test_the_scan_keeps_its_snapshot(self, spied):
        c = _cluster()
        qid, expected = self._running_scan(c, spied[2])
        end = 4 * 6 * BLOCK_ROWS
        a = np.arange(end, end + DIRECT_APPEND_THRESHOLD)
        c.insert("t", {"a": a, "b": a % 10})
        assert _answer(c.gather(qid)) == expected
        later = _answer(c.query(_rows_plan()))
        assert len(later) == len(expected) + len(a)
        assert set(later) - set(expected) == set(zip(a.tolist(),
                                                     (a % 10).tolist()))

    def test_a_bulk_load_into_a_read_partition_is_refused(self, spied):
        c = _cluster()
        stored = c.table("t")

        def catalog():
            return ([(p.n_stable, {k: list(v) for k, v in p.blocks.items()})
                     for p in stored.partitions],
                    sorted(path for p in stored.partitions
                           for path in p.file_paths()))

        qid, expected = self._running_scan(c, spied[2])
        before = catalog()
        end = 4 * 6 * BLOCK_ROWS
        a = np.arange(end, end + 100)
        with pytest.raises(StorageError):
            c.bulk_load("t", {"a": a, "b": a % 10})
        assert catalog() == before
        assert _answer(c.gather(qid)) == expected
        c.bulk_load("t", {"a": a, "b": a % 10})
        assert len(_answer(c.query(_rows_plan()))) == len(expected) + 100
