"""StoredTable: partitioned, optionally clustered tables with PDT updates.

Combines the pieces below it:

* one :class:`PartitionStore` per hash partition (file-per-partition chunk
  layout on HDFS);
* one :class:`PdtStack` per partition holding in-memory differential
  updates; every scan merges them in positionally;
* MinMax skipping, kept conservative under updates by widening;
* update propagation, with the tail-insert fast path (append-only flush)
  that leaves the other entries in the PDT until they are due.

Clustered ("clustered index") tables are stored sorted on the cluster key;
all their updates go through PDTs -- inserts are anchored by binary search
on the stable cluster key. Unordered tables append bulk inserts directly
and may buffer small inserts as PDT tail inserts (paper section 6).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Callable, Collection, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.common.config import Config
from repro.common.errors import StorageError
from repro.engine.batch import Batch, batch_bytes, concat_columns, order_key
from repro.engine.profile import kernel
from repro.hdfs.cluster import HdfsCluster
from repro.pdt.layer import (
    MergePlan, apply_entries, beside_tail, classify_entries,
)
from repro.pdt.stack import PdtStack, TransPdt
from repro.storage.buffer import BufferPool
from repro.storage.colstore import (
    BlockCursor, ColumnDictionaries, PartitionStore,
)
from repro.storage.minmax import TRIPLE_OPS
from repro.storage.schema import TableSchema

#: a partition whose PDT entries reach this fraction of its stable rows
#: is due for update propagation whatever the absolute threshold says
PROPAGATE_FRACTION = 0.10


@dataclass
class ScanResult:
    """Output of a partition scan (or one piece of it): merged columns +
    the rows' codes."""

    columns: Dict[str, np.ndarray]
    #: the rows' codes (stable SID >= 0, PDT insert < 0); None on a
    #: piece that was not asked for them
    identities: Optional[np.ndarray]
    n_rows: int
    #: rows that satisfied the predicates and fell to the ``key_filter``
    key_filtered: int = 0
    #: bytes the scan holds while this piece is in flight
    held: int = 0


class StoredTable:
    """One table: storage partitions + PDT stacks + scan/update API."""

    #: rows live in partitions on HDFS (a ``vh$`` VirtualTable's do not)
    is_virtual = False

    def __init__(self, hdfs: HdfsCluster, db_path: str, schema: TableSchema,
                 config: Config):
        self.hdfs = hdfs
        self.schema = schema
        self.config = config
        self.partitions: List[PartitionStore] = []
        self.pdt: List[PdtStack] = []
        dictionaries = ColumnDictionaries()
        for pid in range(self.n_partitions):
            base = f"{db_path.rstrip('/')}/{schema.name}/part-{pid:04d}"
            self.partitions.append(
                PartitionStore(hdfs, base, schema, config, dictionaries))
            self.pdt.append(
                PdtStack(flush_threshold=config.write_pdt_flush_threshold)
            )
        self._cluster_key_cache: Dict[int, np.ndarray] = {}
        self._merge_plan_cache: Dict[int, tuple] = {}
        registry = hdfs.registry
        self._m_scanned = registry.counter(
            "minmax_blocks_scanned_total",
            "Storage blocks read by predicated scans", labels=("table",))
        self._m_skipped = registry.counter(
            "minmax_blocks_skipped_total",
            "Storage blocks MinMax pruning let predicated scans skip",
            labels=("table",))
        self._m_filtered = registry.counter(
            "scan_rows_filtered_total",
            "Rows of MinMax-surviving ranges dropped by the scan filter",
            labels=("table",))

    def _merge_plan(self, pid: int, trans: Optional[TransPdt] = None):
        """The PDT entries a reader in ``trans`` (None: outside any
        transaction) sees, classified, and whether merging them may leave
        a clustered partition's rows out of cluster order."""
        if trans is not None and len(trans):
            return self._classified(pid, trans.visible_entries())
        return self._committed(pid, trans)

    def _committed(self, pid: int, trans: Optional[TransPdt]):
        """:meth:`_merge_plan` for a reader with no entries of its own,
        who sees committed ones only: those of the Read- and Write-PDT
        its snapshot began on (the stack's current ones without
        ``trans``). Cached per partition, keyed by those two layer
        objects (compared with ``is``) and the stable row count. Commits
        are copy-on-write, so a layer never changes once a stack holds
        it: the reads between two commits share one answer, a suspended
        reader's older layers get their own, and a key that holds its
        layers can never meet a freed layer's reused ``id``."""
        snapshot = self.pdt[pid] if trans is None else trans
        read, write = snapshot.read, snapshot.write
        n_stable = self.partitions[pid].n_stable
        cached = self._merge_plan_cache.get(pid)
        if (cached is None or cached[0] is not read
                or cached[1] is not write or cached[2] != n_stable):
            cached = self._merge_plan_cache[pid] = (
                read, write, n_stable,
                self._classified(pid, read.batches + write.batches))
        return cached[3]

    def _classified(self, pid: int, entries):
        """:meth:`_merge_plan` of ``entries``, not cached."""
        plan = classify_entries(entries)
        return plan, self.schema.is_clustered and plan.may_disorder(
            self.partitions[pid].n_stable, self.schema.clustered_on)

    # ---------------------------------------------------------------- identity

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def n_partitions(self) -> int:
        return self.schema.n_partitions if self.schema.is_partitioned else 1

    @property
    def is_replicated(self) -> bool:
        """Non-partitioned tables are replicated on all workers (section 6)."""
        return not self.schema.is_partitioned

    # --------------------------------------------- storage representation
    #
    # Every public write takes engine values (what a SELECT returns) and
    # converts each exactly once, here; below this boundary -- blocks,
    # partition ids, MinMax, PDT entries, the scan filter -- values are
    # in storage representation (``ColumnType`` owns the conversion).

    def to_storage_columns(self, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Engine ``columns`` in storage representation, each an array of
        its column's storage dtype."""
        ctype = self.schema.ctype
        return {name: np.asarray(ctype(name).to_storage(values),
                                 dtype=ctype(name).dtype)
                for name, values in columns.items()}

    def storage_predicates(self, predicates):
        """The ``(col, op, literal)`` triples as the storage representation
        compares them.

        Never stricter than SQL: a triple the storage type cannot answer
        exactly or more loosely (unknown operator, literal of another
        kind, ``=`` or ``in`` on a value the column's scale cannot hold)
        is dropped -- the engine's Select still applies every conjunct.
        """
        fixed = []
        for col, op, literal in predicates:
            if op in TRIPLE_OPS:
                literal = self.schema.ctype(col).storage_literal(op, literal)
                if literal is not None:
                    fixed.append((col, op, literal))
        return fixed

    def reached_partitions(self, predicates) -> Optional[Tuple[int, ...]]:
        """The sorted pids a row satisfying the ``(col, op, literal)``
        triples can sit in, or None for every partition.

        Only triples fixing every partition-key column by ``=`` or ``in``
        prune, and their literals take the conversion rows were placed
        with: the key type's ``storage_literal``, its storage dtype,
        ``partition_ids``. A literal the type cannot hold exactly (or a
        value out of the dtype's range) gives None, no pruning; a key
        column keeps the values all its triples allow, and every
        combination of the key columns' values gives a pid.
        """
        key = self.schema.partition_key
        if not self.schema.is_partitioned:
            return None
        fixed: Dict[str, set] = {}
        for col, op, literal in predicates:
            if op in ("=", "in") and col in key:
                values = self.schema.ctype(col).storage_literal(op, literal)
                if values is None:
                    return None
                values = {values} if op == "=" else set(values.tolist())
                fixed[col] = fixed.get(col, values) & values
        if len(fixed) < len(key):
            return None
        combos = list(itertools.product(*(fixed[col] for col in key)))
        if not combos:
            return ()
        try:
            arrays = [np.array(column, self.schema.ctype(col).dtype)
                      for col, column in zip(key, zip(*combos))]
        except OverflowError:
            return None
        return tuple(sorted(set(self.schema.partition_ids(arrays).tolist())))

    def _partitioned(self, columns: Dict[str, np.ndarray]):
        """Engine rows (every schema column) as stored, split by the
        partition their key hashes to: the pids that get rows, ascending,
        and ``(pid, columns)`` for each of them, cut as they are asked
        for."""
        arrays = self.to_storage_columns(
            {name: columns[name] for name in self.schema.column_names})
        if self.schema.is_partitioned:
            pids = self.schema.partition_ids(
                [arrays[k] for k in self.schema.partition_key])
        else:
            pids = np.zeros(len(next(iter(arrays.values()))), dtype=np.int64)
        present = np.flatnonzero(
            np.bincount(pids, minlength=self.n_partitions)).tolist()

        def split():
            for pid in present:
                mask = pids == pid
                yield pid, {name: arr[mask] for name, arr in arrays.items()}
        return present, split()

    def _record_minmax(self, store: PartitionStore,
                       ranges: Sequence[Tuple[int, int]],
                       needed: Sequence[str]) -> None:
        """Charge MinMax skip effectiveness: of the blocks the scan would
        touch for its needed columns, how many did the qualifying ranges
        let it skip? Only called for predicated scans."""
        scanned = total = 0
        for name in needed:
            if name in store.blocks:
                scanned += store.blocks_overlapping(name, ranges)
                total += len(store.blocks[name])
        self._m_scanned.inc(scanned, table=self.schema.name)
        self._m_skipped.inc(total - scanned, table=self.schema.name)

    # ------------------------------------------------------------------- loads

    def bulk_load(self, columns: Dict[str, np.ndarray],
                  writers: Optional[Dict[int, str]] = None,
                  busy: Collection[int] = ()) -> None:
        """Write engine rows straight into the column store: hash-partition
        them, sort clustered partitions, append (the initial load, and
        the direct append of a large insert into an unordered table).

        Clustered tables only accept bulk loads into empty partitions;
        later inserts must go through PDTs (:meth:`insert_rows`). Nor
        does a partition in ``busy`` take rows: a running scan reads it,
        and an append deletes the partial block it may still read. Either
        refusal comes before anything is written.
        """
        present, parts = self._partitioned(columns)
        for pid in present:
            if pid in busy:
                raise StorageError(
                    f"bulk load into partition {pid} of {self.name}, "
                    "which a running query reads")
            if self.schema.is_clustered and self.partitions[pid].n_stable:
                raise StorageError(
                    "bulk load into non-empty clustered partition; "
                    "use insert_rows (PDT) instead"
                )
        for pid, part_cols in parts:
            if self.schema.is_clustered:
                part_cols = _in_cluster_order(part_cols,
                                              self.schema.clustered_on)
            writer = writers.get(pid) if writers else None
            self.partitions[pid].append(part_cols, writer)
            # the append rebuilt the absorbed partial blocks' ranges from
            # their stored rows alone
            self.widen_minmax(pid, self.pdt[pid].scan_entries())
            self._cluster_key_cache.pop(pid, None)

    # -------------------------------------------------------------------- scans

    def scan_partition(
        self,
        pid: int,
        columns: Sequence[str],
        predicates: Sequence[Tuple[str, str, object]] = (),
        trans: Optional[TransPdt] = None,
        reader: Optional[str] = None,
        pool: Optional[BufferPool] = None,
        key_filter: Optional[Tuple[Sequence[str], Callable]] = None,
    ) -> ScanResult:
        """Scan one partition: the rows that satisfy ``predicates``, as
        one result -- the pieces of :meth:`scan_pieces` put together,
        with their row-aligned ``identities`` (the rows' codes: stable
        SIDs, PDT inserts' negative codes). Queries, DML and the commit's
        key check stream the pieces; this eager form serves tests and
        probes."""
        pieces = list(self.scan_pieces(pid, columns, predicates, trans,
                                       reader, pool, key_filter,
                                       identities=True))
        if len(pieces) == 1:
            return pieces[0]
        return ScanResult(
            {c: concat_columns([p.columns[c] for p in pieces])
             for c in pieces[0].columns},
            np.concatenate([p.identities for p in pieces]),
            sum(p.n_rows for p in pieces),
            sum(p.key_filtered for p in pieces),
        )

    def scan_pieces(
        self,
        pid: int,
        columns: Sequence[str],
        predicates: Sequence[Tuple[str, str, object]] = (),
        trans: Optional[TransPdt] = None,
        reader: Optional[str] = None,
        pool: Optional[BufferPool] = None,
        key_filter: Optional[Tuple[Sequence[str], Callable]] = None,
        identities: bool = False,
    ) -> Iterator[ScanResult]:
        """Scan one partition lazily: the rows that satisfy
        ``predicates``, one piece at a time -- at most a block of the
        coarsest column the scan reads, the one with the fewest blocks.
        At least one piece (maybe empty) per partition; nothing is read
        before the first is asked for.

        ``predicates`` are conjunctive ``(col, op, literal)`` triples, ops
        from :data:`repro.storage.minmax.TRIPLE_OPS`; a piece holds
        qualifying rows only. A predicate column outside ``columns`` is
        read for the filter and not returned. Per partition, at the first
        piece: MinMax keeps the row ranges that may qualify (no data
        read); the predicate columns of those ranges are decoded and give
        the stable rows' mask, which drops the block-ranges no kept row
        can come from; what stays is cut into pieces
        (:func:`_piece_ranges`).

        The visible PDT entries of a piece's rows (:meth:`MergePlan.within`;
        the last piece also takes the inserts anchored past the last
        stable row) are applied to it alone. Its payload columns are
        decoded, each block once (:class:`BlockCursor`). Rows it deletes
        are one more ``False`` in the mask. With an insert or a modify
        the piece is merged positionally, and the exact mask is taken on
        the *merged* rows in storage representation (inserts and modifies
        are tested on their new values); it is re-sorted on the cluster
        key if inserts may have broken the order. The piece is cut by its
        mask and converted out of storage representation.

        The filter is never stricter than SQL (see
        :meth:`storage_predicates`) but may be looser: the engine's
        Select above the scan still applies every conjunct.

        ``key_filter`` -- ``(columns, member)``, from a join above whose
        build is finished -- is one more conjunct, decided with the
        others: ``member`` takes those columns (as stored) and says per
        row whether the build has the key. A row it drops would have left
        that join anyway. A piece's ``key_filtered`` counts the rows only
        it dropped in that piece; the first piece's also those of the
        dropped block-ranges (a stable row deleted by a PDT entry counts
        there too).

        A piece's ``held`` is what the scan holds while it is in flight;
        its ``identities`` are built only when asked (DML, which changes
        rows piece by piece: the entry list and the merge plan are fixed
        at the first piece, so what a statement writes meanwhile is not
        read again).

        A scan that reads no column at all -- none asked for, no predicate
        column, no ``key_filter``, no ``identities`` (``count(*)``) --
        decodes no block and merges nothing: its one piece is the
        partition's row count, by the entries (:meth:`MergePlan.n_rows`).
        """
        store = self.partitions[pid]
        entries = self.pdt[pid].scan_entries(trans)
        plan, may_disorder = (self._merge_plan(pid, trans) if entries
                              else (_NO_ENTRIES, False))
        triples = self.storage_predicates(predicates)
        with kernel("scan.minmax"):
            ranges = store.minmax.qualifying_ranges(triples, store.n_stable)

        requested = list(dict.fromkeys(columns))
        if predicates:
            self._record_minmax(store, ranges, requested)
        filter_cols = list(dict.fromkeys(
            [col for col, _, _ in triples]
            + list(key_filter[0] if key_filter else ())))
        if not (requested or filter_cols or key_filter or identities):
            # nothing to decode, filter or merge: the plan counts the rows
            yield ScanResult({}, None, plan.n_rows(store.n_stable))
            return
        # The predicate columns give the filter and the cluster key restores
        # sort order after merging non-tail PDT inserts: both are read
        # whether or not the query asked for them (and returned only if so).
        needed = list(dict.fromkeys(
            requested + filter_cols
            + (list(self.schema.clustered_on) if may_disorder else [])))

        candidates = sum(end - start for start, end in ranges)
        # predicate columns first: their mask decides for which
        # block-ranges the payload columns are read at all
        stable_cols = {c: store.read_column(c, ranges, reader, pool)
                       for c in filter_cols}
        mask = passed = None
        if filter_cols:
            mask, passed = _row_masks(stable_cols, triples, key_filter,
                                      candidates)
        # no piece kept: one empty piece, which the inserts past
        # the last stable row still reach
        kept = _piece_ranges(store, ranges, mask, needed, plan) or [
            (store.n_stable, store.n_stable, candidates)]
        filtered = key_filtered = 0
        if mask is not None:
            # the rows of the dropped block-ranges go with the first
            # piece: no stable row in them survives the mask
            key_filtered = np.count_nonzero(passed) - sum(
                np.count_nonzero(passed[at: at + hi - lo])
                for lo, hi, at in kept) if key_filter else 0
            filtered = (candidates - sum(hi - lo for lo, hi, _ in kept)
                        - key_filtered)
        cursors = {c: BlockCursor(store, c, reader, pool)
                   for c in needed if c not in stable_cols}
        state = batch_bytes(Batch.from_columns(stable_cols)) + (
            0 if mask is None else mask.nbytes)
        ctype = self.schema.ctype
        convert = {c: ctype(c).from_storage for c in requested}

        last = len(kept) - 1
        try:
            for i, (lo, hi, at) in enumerate(kept):
                rows = slice(at, at + hi - lo)
                piece = plan.within(
                    lo, hi, store.n_stable if i == last else None
                ) if entries else plan
                merge = bool(len(piece.targets) or piece.mods)
                if hi > lo:
                    cols = {c: stable_cols[c][rows] if c in stable_cols
                            else cursors[c].read(lo, hi)
                            for c in (needed if merge else requested)}
                else:  # the empty piece
                    cols = {c: store.read_column(c, ())
                            for c in (needed if merge else requested)}
                if merge:
                    with kernel("scan.pdt_merge") as k:
                        merged = apply_entries(cols, hi - lo, entries,
                                               needed, plan=piece, base=lo)
                        k.account(rows=merged.n_rows)
                    cols, sids, n_in = merged.columns, merged.identities, \
                        merged.n_rows
                    keep = here = None
                    if mask is not None:
                        keep, here = _row_masks(cols, triples, key_filter,
                                                n_in)
                else:
                    sids = (np.arange(lo, hi, dtype=np.int64) if identities
                            else None)
                    n_in = hi - lo - len(piece.deleted)
                    keep = None if mask is None else mask[rows]
                    here = passed[rows] if key_filter else None
                    if len(piece.deleted):
                        alive = np.ones(hi - lo, dtype=bool)
                        alive[piece.deleted - lo] = False
                        keep = alive if keep is None else keep & alive
                        here = here & alive if key_filter else None
                n_rows = n_in
                if keep is not None and not keep.all():
                    cols = {c: v[keep] for c, v in cols.items()}
                    sids = sids[keep] if sids is not None else None
                    n_rows = int(np.count_nonzero(keep))
                if mask is not None:
                    # of n_in rows, n_passed satisfy every triple
                    n_passed = np.count_nonzero(here) if key_filter \
                        else n_rows
                    filtered += n_in - n_passed
                    key_filtered += n_passed - n_rows
                if merge and may_disorder:
                    cols, sids = _resort_clustered(cols, sids,
                                                   self.schema.clustered_on)
                held = state + sum(c.kept_bytes for c in cursors.values())
                yield ScanResult({c: convert[c](cols[c]) for c in requested},
                                 sids if identities else None, n_rows,
                                 int(key_filtered), held)
                key_filtered = 0
        finally:
            # the rows the filter dropped of the pieces handed on
            if mask is not None:
                self._m_filtered.add((self.schema.name,), int(filtered))

    # ------------------------------------------------------------------ updates

    def insert_rows(self, rows: Dict[str, np.ndarray],
                    trans_for: Callable[[int], TransPdt]) -> None:
        """Trickle-insert engine rows: one batch through the Trans-PDT
        ``trans_for(pid)`` of each partition their keys hash to."""
        for pid, arrays in self._partitioned(rows)[1]:
            store = self.partitions[pid]
            if self.schema.is_clustered:
                anchors = self._cluster_anchors(pid, arrays)
            else:
                anchors = np.full(len(next(iter(arrays.values()))),
                                  store.n_stable, dtype=np.int64)
            trans_for(pid).insert(anchors, arrays)
            for name, values in arrays.items():
                store.minmax.widen_batch(name, anchors, values)

    def delete_rows(self, pid: int, identities: np.ndarray,
                    trans: TransPdt) -> int:
        trans.delete(identities)
        return len(identities)

    def modify_rows(self, pid: int, identities: np.ndarray,
                    new_values: Dict[str, np.ndarray],
                    trans: TransPdt) -> int:
        store = self.partitions[pid]
        columns = self.to_storage_columns(new_values)
        trans.modify(identities, columns)
        # MinMax widens where the row sits -- a PDT insert where it is
        # anchored -- or a scan pruning on the new value skips the row
        anchors = trans.anchors_of(identities)
        for name, values in columns.items():
            store.minmax.widen_batch(name, anchors, values)
        return len(identities)

    def _cluster_anchors(self, pid: int, arrays) -> np.ndarray:
        key_col = self.schema.clustered_on[0]
        stable_keys = self._cluster_key_cache.get(pid)
        if stable_keys is None:
            stable_keys = np.asarray(
                self.partitions[pid].read_column(key_col))
            self._cluster_key_cache[pid] = stable_keys
        return np.searchsorted(stable_keys, arrays[key_col], side="left")

    # --------------------------------------------------------- update propagation

    def needs_propagation(self, pid: int) -> bool:
        return self._due(pid, self.pdt[pid].total_entries())

    def _due(self, pid: int, n_entries: int) -> bool:
        """Are ``n_entries`` PDT entries of the partition due for
        propagation: the absolute threshold or a fraction of its rows?"""
        if n_entries >= self.config.pdt_propagate_threshold:
            return True
        n_stable = max(1, self.partitions[pid].n_stable)
        return n_entries / n_stable >= PROPAGATE_FRACTION

    def propagate(self, pid: int, writer: Optional[str] = None,
                  force: bool = True) -> str:
        """Flush this partition's PDTs into the column store.

        Tail inserts only create new blocks (cheap append flush); any other
        update kind needs a full rewrite of the partition (paper section 6,
        "Update Propagation"), and the paper lets those be flushed at lower
        frequency. ``force`` (a direct call, ``propagate_updates(force=
        True)``) rewrites as soon as there is one. Un-forced, the rewrite
        waits until the non-tail entries are due on their own
        (:meth:`needs_propagation`'s rule applied to them alone); until
        then the tail is appended -- with its final values, without the
        inserts deleted since -- and the rest stays in the PDT. Appends
        only add rows past the old end, so the anchors of what stays hold.
        Returns "tail", "full" or "none".
        """
        stack = self.pdt[pid]
        store = self.partitions[pid]
        entries = stack.scan_entries()
        if not entries:
            return "none"
        names = self.schema.column_names
        n_stable = store.n_stable
        n_tail, kept = beside_tail(entries, n_stable)
        # an append flushes tail inserts alone: any other entry, a delete
        # or modify of a tail insert too, takes a rewrite
        if n_tail < stack.total_entries() and (
                force or self._due(pid, sum(map(len, kept)))):
            stable_cols = {n: store.read_column(n, reader=writer, stored=True)
                           for n in names}
            merged = apply_entries(stable_cols, n_stable, entries, names)
            new_cols = merged.columns
            if self.schema.is_clustered:
                new_cols = _in_cluster_order(new_cols,
                                             self.schema.clustered_on)
            store.rewrite(new_cols, writer)
            kept = []
            mode = "full"
        else:
            values = {
                name: np.asarray(column, dtype=self.schema.ctype(name).dtype)
                for name, column in self._merge_plan(pid)[0].tail(
                    n_stable, names).items()
            }
            if self.schema.is_clustered:
                # past every stable row, but among themselves in commit
                # order: appended in cluster order
                values = _in_cluster_order(values, self.schema.clustered_on)
            store.append(values, writer)
            # the append rebuilt the ranges of the partial blocks it
            # absorbed from their stored rows alone
            self.widen_minmax(pid, kept)
            mode = "tail"
        stack.clear_after_propagation(kept)
        self._cluster_key_cache.pop(pid, None)
        return mode

    def widen_minmax(self, pid: int, entries) -> None:
        """Widen the partition's MinMax for the values ``entries`` write,
        where they write them: inserts at their anchor, modifies at their
        row (after a MinMax rebuilt from stored rows or from the WAL)."""
        minmax = self.partitions[pid].minmax
        for name, rows, values in classify_entries(entries).written():
            minmax.widen_batch(name, rows, values)

    # ---------------------------------------------------------------- statistics

    def total_rows(self, include_pdt: bool = True) -> int:
        """Rows of the table (no block read), as stored or with the PDTs."""
        return sum(
            self._merge_plan(pid)[0].n_rows(store.n_stable)
            if include_pdt and self.pdt[pid].total_entries()
            else store.n_stable
            for pid, store in enumerate(self.partitions))

    def total_bytes(self) -> int:
        return sum(p.total_bytes() for p in self.partitions)


# ------------------------------------------------------------------ helpers

def _row_masks(columns, triples, key_filter, n_rows: int):
    """Rows (of row-aligned ``columns``) satisfying every triple and the
    ``key_filter``, and those satisfying every triple (the same array
    when there is no key filter)."""
    passed = np.ones(n_rows, dtype=bool)
    if triples:
        with kernel("scan.filter", rows=n_rows):
            for col, op, literal in triples:
                passed &= TRIPLE_OPS[op](columns[col], literal)
    if key_filter is None:
        return passed, passed
    names, member = key_filter
    with kernel("scan.key_filter", rows=n_rows):
        return passed & member([columns[c] for c in names]), passed


#: the plan of a partition without visible PDT entries
_NO_ENTRIES = classify_entries([])


def _piece_ranges(store: PartitionStore, ranges, mask: Optional[np.ndarray],
                  columns: Sequence[str],
                  plan: MergePlan) -> List[Tuple[int, int, int]]:
    """The pieces of ``ranges`` the scan still has to read, as ``(lo,
    hi, at)``: rows ``[lo, hi)``, from position ``at`` of ``ranges``.

    A block-range of ``ranges`` (cut at the block edges of every column)
    stays when a stable row in it survives ``mask`` (None keeps every
    one) or when the PDT can put a qualifying row there: an insert of
    ``plan`` anchored in it, or a modify of one of its rows -- data-driven
    pruning has no ``widen_batch`` to cover them, as MinMax has. Kept
    block-ranges side by side are one piece up to a block edge of the
    coarsest column, the one with the fewest blocks.
    """
    edges = sorted({ref.row_start for c in columns for ref in store.blocks[c]})
    coarsest = min(columns, key=lambda c: len(store.blocks[c]), default=None)
    cuts = {ref.row_start for ref in store.blocks.get(coarsest, ())}
    pins = plan.pins.tolist() if mask is not None else []
    kept: List[Tuple[int, int, int]] = []
    pos = 0
    for start, end in ranges:
        inner = edges[bisect_left(edges, start + 1): bisect_left(edges, end)]
        for lo, hi in zip([start] + inner, inner + [end]):
            at, pos = pos, pos + hi - lo
            if not (mask is None or mask[at:pos].any()
                    or bisect_left(pins, lo) < bisect_left(pins, hi)):
                continue
            if kept and kept[-1][1] == lo and lo not in cuts:
                kept[-1] = (kept[-1][0], hi, kept[-1][2])
            else:
                kept.append((lo, hi, at))
    return kept


def _in_cluster_order(columns, cluster_key):
    """Row-aligned ``columns`` sorted (stably) on the cluster key."""
    order = np.lexsort(tuple(
        order_key(columns[c]) for c in reversed(cluster_key)))
    return {k: v[order] for k, v in columns.items()}


def _resort_clustered(columns, identities: np.ndarray, cluster_key):
    """Restore full sort order when PDT inserts landed locally unordered.

    Positional anchoring keeps the merge ordered in the common case
    (inserts anchored by binary search on the cluster key), so first do a
    cheap vectorized sortedness check and only pay for a sort when
    same-anchor inserts actually broke the order.
    """
    first = columns[cluster_key[0]]
    if len(first) < 2 or (first[1:] >= first[:-1]).all():
        return columns, identities
    columns = _in_cluster_order({**columns, None: identities}, cluster_key)
    return columns, columns.pop(None)
