"""Stateful test of the write path: one clustered table against a model.

A hypothesis state machine drives one clustered ``StoredTable`` (two
STRING, INT64, DATE and DECIMAL columns, blocks of a few dozen rows so
every column has several) through insert / delete / modify / commit /
abort / tail flush / forced propagation / un-forced propagation (a tail
flush that keeps the other entries until they are due) / filtered scan
(with or without a join's key set as one more conjunct), each scan also
walked piece by piece as a streaming scan reads it. While a transaction
is open, a rival one may begin, delete or modify rows of the committed
image and commit first: if the open one wrote a row the rival wrote, its
commit raises ``TransactionAborted`` and the model stays as the rival's
commit left it; writes to other rows both commit. The model is a
plain list of rows in engine values; DECIMAL prices are written as Python
floats and as Python ints, and either must read back as written. After
every step the committed image -- and the open transaction's, if there is
one -- must hold the model's rows, in cluster order; a filtered scan must
return exactly the model's qualifying rows, so MinMax (widened by every
insert and modify, aborted ones included, and again for the entries a
tail flush keeps) never prunes one. Every block must hold the bytes the
bulk load's encoder writes for its rows, however it was written: a
rewrite encodes strings from their codes and images, never from ``str``.

The STRING column ``s`` is bulk-loaded from two phrases, so its blocks are
PDICT and scans hand it up dictionary-coded; inserts and modifies write
strings no block has seen (they join the scan's dictionary through the
PDT), and a propagation that rewrites them into the blocks may leave some
blocks LZ or RAW -- then the column comes back plain. Either way it holds
the model. ``note`` is loaded with runs of long distinct strings (LZ or
RAW blocks) and runs of one short string (PDICT blocks), and written with
both kinds.
"""

from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.common.config import Config
from repro.common.errors import TransactionAborted
from repro.common.types import DATE, DECIMAL, INT64, STRING
from repro.compression import compress_best
from repro.engine.batch import DictColumn
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.storage import Column, StoredTable, TableSchema
from repro.storage.minmax import OPS
from repro.storage.table import PROPAGATE_FRACTION

NAMES = ["k", "d", "price", "s", "note"]
WORDS = ["MAIL", "SHIP", "RAIL", "AIR", "", "Zürich", "日本", "TRUCK"]

days = st.integers(8000, 8060)
#: a DECIMAL as a writer hands it over: a float of cents, or a whole number
prices = st.integers(100, 99999).map(lambda cents: cents / 100) \
    | st.integers(1, 999)
words = st.sampled_from(WORDS) | st.text("abc", max_size=3)
#: what the table is loaded with: 16 of them a block, which two entries
#: and sixteen 1-bit codes hold without an exception at a fraction of RAW
#: (so LZ is not even tried) -- every block PDICT
loaded_words = st.sampled_from(["DELIVER IN PERSON", "Zürich-Flughafen"])
#: what ``note`` is written with: a few short strings, or long ones
notes = st.sampled_from(["AIR", "RAIL", "日本"]) | st.integers(0, 99).map(
    lambda i: f"a longer remark, number {i} of a hundred or so")
#: a third of them past every loaded day: tail inserts
new_rows = st.lists(st.tuples(st.integers(8000, 8090), prices, words, notes),
                    min_size=1, max_size=12)
picks = st.lists(st.integers(0, 10**6), min_size=1, max_size=6)


def small_blocks() -> Config:
    config = Config().scaled_for_tests()
    config.block_size = 128       # 16 int64, 32 date, 16 string rows a block
    config.blocks_per_chunk = 4   # and a few chunk files
    return config


class ClusteredTableMachine(RuleBasedStateMachine):
    """Rows are ``(k, d, price, s, note)`` as the engine sees them
    (``price`` an int or a float: both read back as the float of equal
    value); ``k`` is never reused."""

    def __init__(self):
        super().__init__()
        config = small_blocks()
        hdfs = HdfsCluster(["n1", "n2", "n3"], config,
                           VectorHPlacementPolicy())
        schema = TableSchema(
            "orders",
            [Column("k", INT64), Column("d", DATE), Column("price", DECIMAL),
             Column("s", STRING), Column("note", STRING)],
            clustered_on=("d",))
        self.table = StoredTable(hdfs, "/db", schema, config)
        self.stack = self.table.pdt[0]
        self.store = self.table.partitions[0]
        self.committed = []
        self.pending = []       # the open transaction's image
        self.trans = None
        self.next_key = 0
        #: nothing but tail inserts committed since the last propagation
        self.only_tail = True
        #: nothing but tail inserts written by the open transaction
        self.trans_only_tail = True
        #: keys of the rows the open transaction deleted or modified
        self.written = set()
        #: what rivals committed while it was open: keys deleted, and
        #: ``{key: (price, s, note)}`` modified
        self.rival_deleted = set()
        self.rival_modified = {}

    # ---------------------------------------------------------------- helpers

    def _rows(self, values):
        """``values`` -- ``(d, price, s, note)``, or ``(d, price, s)`` for
        a loaded row: every other run of 32 has long notes of their own,
        the others one short note -- as rows under fresh keys."""
        rows = []
        for value in values:
            k = self.next_key + len(rows)
            if len(value) == 3:
                value += ("AIR" if k // 32 % 2 else
                          f"row {k}: a long remark that no other row makes",)
            rows.append((k, *value))
        self.next_key += len(rows)
        return rows

    @staticmethod
    def _columns(rows):
        k, d, price, s, note = zip(*rows)
        return {"k": np.array(k, dtype=np.int64),
                "d": np.array(d, dtype=np.int32),
                "price": np.array(price),
                "s": np.array(s, dtype=object),
                "note": np.array(note, dtype=object)}

    @staticmethod
    def _as_rows(result):
        cols = result.columns
        return list(zip(*(cols[name].tolist() for name in NAMES)))

    def _begin(self):
        if self.trans is None:
            self.trans = self.stack.begin()
            self.pending = list(self.committed)
            self.trans_only_tail = True
            self.written = set()
            self.rival_deleted = set()
            self.rival_modified = {}

    def _identities_of(self, picked, trans, keys=()):
        """Identities (and keys) of the rows visible in ``trans`` that
        ``picked`` lands on, and of those under ``keys``."""
        seen = self.table.scan_partition(0, ["k"], trans=trans)
        at = sorted({p % seen.n_rows for p in picked} | set(np.flatnonzero(
            np.isin(seen.columns["k"], sorted(keys))).tolist()))
        return seen.identities[at], set(seen.columns["k"][at].tolist())

    def _note_inserts(self, rows):
        """A row at or before the last stable cluster key is anchored
        inside the stable image: not a tail insert."""
        stable = self.store.read_column("d")
        if len(stable) and min(row[1] for row in rows) <= stable[-1]:
            self.trans_only_tail = False

    def _modify(self, identities, price, s, note, trans):
        n = len(identities)
        self.table.modify_rows(
            0, identities,
            {"price": np.full(n, price),
             "s": np.array([s] * n, dtype=object),
             "note": np.array([note] * n, dtype=object)}, trans)

    # ------------------------------------------------------------------ rules

    @initialize(values=st.lists(st.tuples(days, prices, loaded_words),
                                min_size=64, max_size=160))
    def bulk_load(self, values):
        # whole blocks only (a trailing block of a few rows would be RAW):
        # the table starts with every string block PDICT
        self.committed = self._rows(values[:len(values) // 32 * 32])
        self.table.bulk_load(self._columns(self.committed))
        assert all(len(refs) >= 2 for refs in self.store.blocks.values())
        assert {ref.scheme for ref in self.store.blocks["s"]} == {"PDICT"}

    @rule(values=new_rows)
    def insert(self, values):
        self._begin()
        rows = self._rows(values)
        self._note_inserts(rows)
        self.table.insert_rows(self._columns(rows), lambda _: self.trans)
        self.pending += rows

    @rule(count=st.integers(1, 5), price=prices, s=words, note=notes)
    def insert_past_the_end(self, count, price, s, note):
        """Rows whose cluster key is past every stable one: tail inserts."""
        self._begin()
        last = max((row[1] for row in self.pending), default=8000)
        rows = self._rows([(last + 1 + i, price, s, note)
                           for i in range(count)])
        self._note_inserts(rows)
        self.table.insert_rows(self._columns(rows), lambda _: self.trans)
        self.pending += rows

    @precondition(lambda self: self.pending if self.trans else self.committed)
    @rule(picked=picks)
    def delete(self, picked):
        self._begin()
        identities, keys = self._identities_of(picked, self.trans)
        self.table.delete_rows(0, identities, self.trans)
        self.pending = [r for r in self.pending if r[0] not in keys]
        self.written |= keys
        self.trans_only_tail = False

    @precondition(lambda self: self.pending if self.trans else self.committed)
    @rule(picked=picks, price=prices, s=words, note=notes)
    def modify(self, picked, price, s, note):
        self._begin()
        identities, keys = self._identities_of(picked, self.trans)
        self._modify(identities, price, s, note, self.trans)
        self.pending = [(row[0], row[1], price, s, note)
                        if row[0] in keys else row for row in self.pending]
        self.written |= keys
        self.trans_only_tail = False

    def _rival(self, picked, clash):
        """A second transaction, begun while the open one is, and the
        identities (and keys) of the rows of the committed image it
        writes: those ``picked`` lands on and, with ``clash``, those the
        open one wrote."""
        rival = self.stack.begin()
        return (rival,) + self._identities_of(
            picked, rival, self.written if clash else ())

    def _rival_commits(self, rival):
        self.stack.commit(rival)
        self.only_tail = False

    @precondition(lambda self: self.trans is not None and self.committed)
    @rule(picked=picks, clash=st.booleans())
    def rival_delete(self, picked, clash):
        """A rival deletes rows and commits first."""
        rival, identities, keys = self._rival(picked, clash)
        self.table.delete_rows(0, identities, rival)
        self._rival_commits(rival)
        self.committed = [r for r in self.committed if r[0] not in keys]
        self.rival_deleted |= keys
        for key in keys:
            self.rival_modified.pop(key, None)

    @precondition(lambda self: self.trans is not None and self.committed)
    @rule(picked=picks, clash=st.booleans(), price=prices, s=words,
          note=notes)
    def rival_modify(self, picked, clash, price, s, note):
        """A rival modifies rows and commits first."""
        rival, identities, keys = self._rival(picked, clash)
        self._modify(identities, price, s, note, rival)
        self._rival_commits(rival)
        self.committed = [(row[0], row[1], price, s, note)
                          if row[0] in keys else row
                          for row in self.committed]
        self.rival_modified.update(dict.fromkeys(keys, (price, s, note)))

    @precondition(lambda self: self.trans is not None)
    @rule()
    def commit(self):
        """The second writer of a row a rival wrote aborts, and the model
        stays as the rival left it; otherwise the rivals' writes and the
        open transaction's both hold."""
        if self.written & (self.rival_deleted | set(self.rival_modified)):
            with pytest.raises(TransactionAborted):
                self.stack.commit(self.trans)
        else:
            self.stack.commit(self.trans)
            modified = self.rival_modified
            self.committed = [
                (row[0], row[1], *modified[row[0]]) if row[0] in modified
                else row
                for row in self.pending if row[0] not in self.rival_deleted]
            if not self.trans_only_tail:
                self.only_tail = False
        self.trans = None

    @precondition(lambda self: self.trans is not None)
    @rule()
    def abort(self):
        self.trans = None

    @precondition(lambda self: self.trans is None)
    @rule()
    def propagate(self):
        """Forced propagation; a tail flush when only tail inserts wait."""
        waiting = self.stack.total_entries()
        files = set(self.store.file_paths())
        kind = self.table.propagate(0, writer="n1")
        assert kind == ("none" if not waiting
                        else "tail" if self.only_tail else "full")
        if kind == "tail":   # appends: the full blocks stay where they are
            assert {p for p in files if "chunk" in p} <= set(
                self.store.file_paths())
        elif kind == "full":
            assert not files & set(self.store.file_paths())
        assert self.stack.total_entries() == 0
        self.only_tail = True

    @precondition(lambda self: self.trans is None
                  and self.stack.total_entries())
    @rule()
    def propagate_when_due(self):
        """The un-forced rule (``propagate_updates``) under the smallest
        threshold that makes the partition due: its tail is appended, and
        it is rewritten only if its other entries are due on their own (a
        tenth of the rows, or as many as all waiting); until then they
        stay in the PDT."""
        self.table.config.pdt_propagate_threshold = \
            self.stack.total_entries()
        assert self.table.needs_propagation(0)
        n_stable = self.store.n_stable
        kind = self.table.propagate(0, writer="n1", force=False)
        kept = self.stack.total_entries()
        assert kind in ("tail", "full")
        if kind == "full":
            assert not kept
        # what stays is anchored in the old stable image, which the
        # appended rows come after
        codes = self.table.scan_partition(0, ["k"]).identities
        anchors = self.stack.begin().anchors_of(codes[codes < 0].tolist())
        assert all(anchor < n_stable for anchor in anchors)
        # ... and so is every kept insert, a deleted one too
        assert all((b.anchors < n_stable).all()
                   for b in self.stack.scan_entries() if b.anchors is not None)
        self.only_tail = not kept

    def _beside_tail(self):
        """Rows of the committed entries: the tail inserts (anchored past
        the last stable row), and the rows a tail flush keeps -- every
        other insert, and every delete or modify of a row not in the
        tail."""
        batches = self.stack.scan_entries()
        n_stable = self.store.n_stable
        tail = np.concatenate([b.targets[b.anchors >= n_stable]
                               for b in batches if b.anchors is not None]
                              + [np.zeros(0, dtype=np.int64)])
        kept = sum(int((b.anchors < n_stable).sum()) if b.anchors is not None
                   else int((~np.isin(b.targets, tail)).sum())
                   for b in batches)
        return len(tail), kept

    @precondition(lambda self: self.trans is None
                  and self._beside_tail()[0])
    @rule(picked=st.lists(st.integers(0, 10**6), max_size=3))
    def propagate_with_the_rest_not_due(self, picked):
        """A transaction deletes some of the tail inserts (maybe none) and
        commits; then the un-forced rule runs under a threshold one row
        above what a tail flush keeps: the partition is due, the rows
        beside its tail are not (unless they are a tenth of the stable
        rows). The tail is appended and exactly those rows stay -- a
        deleted tail insert and its delete go with the tail."""
        seen = self.table.scan_partition(0, ["k"])
        trans = self.stack.begin()
        tail = np.flatnonzero(
            trans.anchors_of(seen.identities) >= self.store.n_stable)
        if len(tail) and picked:
            at = np.unique(tail[[p % len(tail) for p in picked]])
            self.table.delete_rows(0, seen.identities[at], trans)
            self.stack.commit(trans)
            keys = set(seen.columns["k"][at].tolist())
            self.committed = [r for r in self.committed if r[0] not in keys]
        kept = self._beside_tail()[1]
        self.table.config.pdt_propagate_threshold = kept + 1
        assert self.table.needs_propagation(0)
        due = kept / max(1, self.store.n_stable) >= PROPAGATE_FRACTION
        kind = self.table.propagate(0, writer="n1", force=False)
        assert kind == ("full" if due else "tail")
        assert self.stack.total_entries() == (0 if due else kept)
        self.only_tail = not self.stack.total_entries()

    @rule(column=st.sampled_from(NAMES),
          op=st.sampled_from(sorted(OPS)),
          key_column=st.sampled_from([None, "k", "s"]), data=st.data())
    def filtered_scan(self, column, op, key_column, data):
        """One triple and, like a join above with its build finished, a
        key set some column's values must be in."""
        image = self.pending if self.trans else self.committed
        at = NAMES.index(column)
        domain = sorted({r[at] for r in image}) or [0 if at < 3 else ""]
        literal = data.draw(st.sampled_from(domain)
                            | {0: st.integers(-1, self.next_key), 1: days,
                               2: prices, 3: words, 4: notes}[at])
        passing = expected = [r for r in image if OPS[op](r[at], literal)]
        key_filter = None
        if key_column is not None:
            key_at = NAMES.index(key_column)
            present = sorted({r[key_at] for r in image}) or [0 if key_at < 3
                                                             else ""]
            keys = data.draw(st.sets(st.sampled_from(present), max_size=8))
            expected = [r for r in passing if r[key_at] in keys]
            key_filter = ([key_column], lambda cols: np.isin(
                np.asarray(cols[0]), sorted(keys)))
        result = self.table.scan_partition(
            0, NAMES, predicates=[(column, op, literal)], trans=self.trans,
            key_filter=key_filter)
        assert Counter(self._as_rows(result)) == Counter(expected)
        self._check_pieces(result, self.trans, [(column, op, literal)],
                           key_filter)
        # rows only the key set dropped (a deleted stable row may still
        # count, if its whole block-range went)
        assert result.key_filtered >= len(passing) - len(expected)
        assert key_filter is not None or result.key_filtered == 0

    # ------------------------------------------------------------- invariants

    def _check_pieces(self, result, trans, predicates=(), key_filter=None):
        """The streamed pieces of the scan that gave ``result``: they put
        it together row for row, in cluster order, and each lies in one
        block of the coarsest column read (the one with the fewest
        blocks), a later piece not in an earlier one -- a later one, when
        no filter may drop a stretch between two pieces -- its stable
        rows, and the inserts it carries, anchored in that block (inserts
        past the last stable row come in the last piece)."""
        pieces = list(self.table.scan_pieces(
            0, NAMES, predicates, trans=trans, key_filter=key_filter,
            identities=True))
        assert pieces
        rows = [row for piece in pieces for row in self._as_rows(piece)]
        assert rows == self._as_rows(result)
        assert [i for p in pieces for i in p.identities.tolist()] == \
            result.identities.tolist()
        keys = [r[1] for r in rows]
        assert keys == sorted(keys), "pieces left cluster order"
        n_stable = self.store.n_stable
        snapshot = trans if trans is not None else self.stack.begin()
        coarsest = min(NAMES, key=lambda c: len(self.store.blocks[c]))
        edges = [ref.row_start for ref in self.store.blocks[coarsest]]
        at = []
        for i, piece in enumerate(pieces):
            sids = snapshot.anchors_of(piece.identities.tolist())
            if i < len(pieces) - 1:
                assert all(sid < n_stable for sid in sids), \
                    "an insert past the end before the last piece"
            ranges = {bisect_right(edges, sid) for sid in sids
                      if sid < n_stable}
            assert len(ranges) <= 1, "piece crosses an edge"
            at += ranges
        assert at == sorted(at if predicates else set(at))

    def _check_image(self, trans, model):
        image = self.table.scan_partition(0, NAMES, trans=trans)
        # coded exactly when every block of the column is PDICT
        schemes = {ref.scheme for ref in self.store.blocks["s"]}
        assert isinstance(image.columns["s"], DictColumn) == (
            schemes == {"PDICT"})
        rows = self._as_rows(image)
        assert Counter(rows) == Counter(model)
        assert len(set(r[0] for r in rows)) == len(rows)
        keys = [r[1] for r in rows]
        assert keys == sorted(keys), "scan left cluster order"
        self._check_pieces(image, trans)

    @invariant()
    def images_hold_the_model(self):
        self._check_image(None, self.committed)
        if self.trans is not None:
            self._check_image(self.trans, self.pending)

    @invariant()
    def blocks_hold_what_a_load_writes(self):
        """Every block is what the bulk load's encoder (Python values in,
        :func:`compress_best`) writes for the rows it holds."""
        store = self.store
        for name, refs in store.blocks.items():
            ctype = self.table.schema.ctype(name)
            for ref in refs:
                rows = store.read_column(name, [(ref.row_start, ref.row_end)])
                block = compress_best(np.asarray(rows, dtype=ctype.dtype),
                                      ctype)
                stored = store.hdfs.read(ref.path, ref.offset, ref.length)
                # (the payload follows a 9-byte header)
                assert (ref.scheme, stored[9:]) == (block.scheme, block.data)

    @invariant()
    def catalog_is_consistent(self):
        store = self.store
        for name, refs in store.blocks.items():
            refs = sorted(refs, key=lambda r: r.row_start)
            assert sum(r.n_rows for r in refs) == store.n_stable
            assert all(a.row_end == b.row_start
                       for a, b in zip(refs, refs[1:]))
            ranges = store.minmax.ranges.get(name)
            starts, ends = (([], []) if ranges is None else
                            (ranges.starts.tolist(), ranges.ends.tolist()))
            assert list(zip(starts, ends)) == [(r.row_start, r.row_end)
                                               for r in refs]
        assert {r.path for refs in store.blocks.values()
                for r in refs} <= set(store.file_paths())


ClusteredTableMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None)
TestClusteredTable = ClusteredTableMachine.TestCase


class DeferringTableMachine(ClusteredTableMachine):
    """The same table with every transaction committed and every
    propagation un-forced, one after each commit (as ``propagate_updates``
    runs between a workload's cycles): the entries a tail flush keeps stay
    under scans, commits and more tail flushes until they come due."""

    propagate = abort = None  # (not rules here: every transaction commits)

    @initialize(values=st.lists(st.tuples(days, prices, loaded_words),
                                min_size=128, max_size=192))
    def bulk_load(self, values):
        """More rows: the entries due by threshold come before those due
        as a tenth of the rows."""
        ClusteredTableMachine.bulk_load(self, values)

    @precondition(lambda self: self.trans is not None)
    @rule()
    def commit(self):
        ClusteredTableMachine.commit(self)
        if self.stack.total_entries():
            self.propagate_when_due()


DeferringTableMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None)
TestDeferringTable = DeferringTableMachine.TestCase
