"""PDT stacking, snapshot isolation and optimistic concurrency control.

Per table partition VectorH keeps (paper section 6):

* a large, slow-moving **Read-PDT** of differences against the stable image;
* a small **Write-PDT** stacked on it; commits are copy-on-write, so every
  running query keeps seeing the layers it started with -- this *is* the
  snapshot-isolation mechanism;
* a private **Trans-PDT** per transaction, stacked on top of it all.

On commit the Trans-PDT is *serialized* against the current master state:
write-write conflicts are detected at tuple granularity (any tuple code the
transaction deleted/modified that a concurrent commit also wrote aborts the
transaction), then its batches are re-sequenced and folded into a fresh
Write-PDT. When the Write-PDT outgrows its threshold it is merged down into
the Read-PDT.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import TransactionAborted
from repro.pdt.entries import DeltaBatch, EntryKind, fresh_codes
from repro.pdt.layer import PdtLayer, concat, lookup

_TRANS_SEQ_BASE = 1 << 40  # trans entries order after all committed entries


def _arrays(columns: Mapping[str, np.ndarray]):
    return {name: np.asarray(values) for name, values in columns.items()}


def _written(batches: Sequence[DeltaBatch]) -> np.ndarray:
    """The codes ``batches`` delete or modify (a fresh insert cannot
    conflict)."""
    return concat([batch.targets for batch in batches
                   if batch.kind is not EntryKind.INSERT])


class TransPdt:
    """A transaction's private delta layer over one partition."""

    def __init__(self, snapshot_version: int, read_layer: PdtLayer,
                 write_layer: PdtLayer):
        self.snapshot_version = snapshot_version
        #: the stack's layers when the transaction began: its snapshot
        self.read = read_layer
        self.write = write_layer
        self.layer = PdtLayer()
        self._local_seq = itertools.count(0)

    # -- update API -------------------------------------------------------------
    #
    # One call is one batch; its columns are arrays in storage
    # representation, row-aligned with the codes.

    def insert(self, anchors, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Insert rows, each before the stable position its ``anchors``
        entry names; returns their codes."""
        anchors = np.asarray(anchors, dtype=np.int64)
        codes = fresh_codes(len(anchors))
        self._add(EntryKind.INSERT, codes, anchors, _arrays(columns))
        return codes

    def delete(self, targets) -> None:
        """Delete the tuples with codes ``targets``."""
        self._add(EntryKind.DELETE, targets, None, {})

    def modify(self, targets, columns: Mapping[str, np.ndarray]) -> None:
        """Overwrite ``columns`` of the tuples with codes ``targets``."""
        self._add(EntryKind.MODIFY, targets, None, _arrays(columns))

    def _add(self, kind: EntryKind, targets, anchors, columns) -> None:
        batch = DeltaBatch(kind, _TRANS_SEQ_BASE + next(self._local_seq),
                           np.asarray(targets, dtype=np.int64), anchors,
                           columns)
        if len(batch):
            self.layer.add(batch)

    # -- scan support --------------------------------------------------------------

    def visible_entries(self) -> List[DeltaBatch]:
        """All batches a scan inside this transaction must merge."""
        return self.read.batches + self.write.batches + self.layer.batches

    def anchors_of(self, codes) -> np.ndarray:
        """The stable row each tuple of ``codes`` sits at in this
        snapshot: a stable tuple's is its code, an insert's is its
        anchor, whichever layer holds it."""
        codes = np.asarray(codes, dtype=np.int64)
        if not len(codes) or codes.min() >= 0:
            return codes
        inserts = [b for b in self.visible_entries()
                   if b.kind is EntryKind.INSERT]
        if not inserts:
            return codes
        at, found = lookup(concat([b.targets for b in inserts]), codes)
        return np.where(found, concat([b.anchors for b in inserts])[at],
                        codes)

    def has_inserts(self) -> bool:
        """Does this transaction insert a row of its own?"""
        return any(b.kind is EntryKind.INSERT for b in self.layer.batches)

    def __len__(self) -> int:
        return len(self.layer)


class PdtStack:
    """Master PDT state of one table partition."""

    def __init__(self, flush_threshold: int = 4096):
        self.read = PdtLayer()
        self.write = PdtLayer()
        self.version = 0
        self.flush_threshold = flush_threshold
        self._seq = itertools.count(1)
        # (version, codes deleted or modified) per commit, for conflict
        # detection.
        self._commit_log: List[Tuple[int, np.ndarray]] = []

    # -- snapshots ----------------------------------------------------------------

    def begin(self) -> TransPdt:
        """Start a transaction: an empty Trans-PDT over the current layers."""
        return TransPdt(self.version, self.read, self.write)

    def scan_entries(self, trans: Optional[TransPdt] = None) -> List[DeltaBatch]:
        if trans is not None:
            return trans.visible_entries()
        return self.read.batches + self.write.batches

    # -- commit (PDT serialization, paper section 6) ---------------------------------

    def commit(self, trans: TransPdt) -> None:
        """Serialize a Trans-PDT into the master state.

        Raises :class:`TransactionAborted` on a write-write conflict with
        any transaction that committed after this one's snapshot.
        """
        conflicts = self.conflicts(trans)
        if len(conflicts):
            raise TransactionAborted(
                f"write-write conflict on {len(conflicts)} tuple(s)"
            )
        self.apply(trans.layer.batches)

    def apply(self, batches: Sequence[DeltaBatch]) -> None:
        """Fold committed batches, re-sequenced, into a copy-on-write
        Write-PDT: a commit, a WAL replay or a resolved in-doubt txn."""
        self.write = PdtLayer(self.write.batches + [
            replace(batch, seq=next(self._seq)) for batch in batches])
        self.version += 1
        self._commit_log.append((self.version, _written(batches)))
        self._maybe_flush()

    def conflicts(self, trans: TransPdt) -> np.ndarray:
        """The codes ``trans`` deleted or modified that a transaction
        committed after its snapshot also wrote."""
        mine = _written(trans.layer.batches)
        if not len(mine):
            return mine
        theirs = concat([written for version, written in self._commit_log
                         if version > trans.snapshot_version])
        return np.intersect1d(mine, theirs)

    # -- layer maintenance -------------------------------------------------------------

    def _maybe_flush(self) -> None:
        if len(self.write) >= self.flush_threshold:
            self.flush_write_to_read()

    def flush_write_to_read(self) -> None:
        """Propagate Write-PDT into the Read-PDT (threshold reached)."""
        self.read = PdtLayer(self.read.batches + self.write.batches)
        self.write = PdtLayer()

    def clear_after_propagation(self,
                                kept: Sequence[DeltaBatch] = ()) -> None:
        """Called after update propagation flushed the stable image:
        ``kept`` are the batches it left for a later one (paper section
        6), from now on the Read-PDT."""
        self.read = PdtLayer(kept)
        self.write = PdtLayer()
        self._commit_log.clear()

    # -- statistics ---------------------------------------------------------------------

    def total_entries(self) -> int:
        """The rows the Read- and Write-PDT batches hold."""
        return len(self.read) + len(self.write)
