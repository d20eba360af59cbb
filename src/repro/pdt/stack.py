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
transaction), then the entries are re-sequenced and folded into a fresh
Write-PDT. When the Write-PDT outgrows its threshold it is merged down into
the Read-PDT.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import TransactionAborted
from repro.pdt.entries import DeltaEntry, EntryKind, next_insert_code
from repro.pdt.layer import PdtLayer

_TRANS_SEQ_BASE = 1 << 40  # trans entries order after all committed entries


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
        self.write_set: Set[int] = set()  # codes deleted or modified

    # -- update API -------------------------------------------------------------

    def insert(self, anchor_sid: int, values: Dict[str, object]) -> int:
        """Insert a row before stable position ``anchor_sid``; returns
        its code."""
        code = next_insert_code()
        self.layer.add(DeltaEntry(EntryKind.INSERT, self._next_seq(), code,
                                  anchor_sid, dict(values)))
        return code

    def delete(self, target: int) -> None:
        """Delete the tuple with code ``target``."""
        self._write(EntryKind.DELETE, target, {})

    def modify(self, target: int, values: Dict[str, object]) -> None:
        """Overwrite columns of the tuple with code ``target``."""
        self._write(EntryKind.MODIFY, target, dict(values))

    def _write(self, kind: EntryKind, target: int, values) -> None:
        self.layer.add(DeltaEntry(kind, self._next_seq(), target,
                                  values=values))
        self.write_set.add(target)

    def _next_seq(self) -> int:
        return _TRANS_SEQ_BASE + next(self._local_seq)

    # -- scan support --------------------------------------------------------------

    def visible_entries(self) -> List[DeltaEntry]:
        """All entries a scan inside this transaction must merge."""
        return self.read.entries + self.write.entries + self.layer.entries

    def anchors_of(self, codes: Sequence[int]) -> List[int]:
        """The stable row each tuple of ``codes`` sits at in this
        snapshot: a stable tuple's is its code, an insert's is its
        anchor, whichever layer holds it."""
        if min(codes, default=0) >= 0:
            return list(codes)
        anchors = {e.target: e.anchor_sid for e in self.visible_entries()
                   if e.kind is EntryKind.INSERT}
        return [anchors.get(code, code) for code in codes]

    def has_inserts(self) -> bool:
        """Does this transaction insert a row of its own?"""
        return any(e.kind is EntryKind.INSERT for e in self.layer.entries)

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
        self._commit_log: List[Tuple[int, Set[int]]] = []

    # -- snapshots ----------------------------------------------------------------

    def begin(self) -> TransPdt:
        """Start a transaction: an empty Trans-PDT over the current layers."""
        return TransPdt(self.version, self.read, self.write)

    def scan_entries(self, trans: Optional[TransPdt] = None) -> List[DeltaEntry]:
        if trans is not None:
            return trans.visible_entries()
        return self.read.entries + self.write.entries

    # -- commit (PDT serialization, paper section 6) ---------------------------------

    def commit(self, trans: TransPdt) -> None:
        """Serialize a Trans-PDT into the master state.

        Raises :class:`TransactionAborted` on a write-write conflict with
        any transaction that committed after this one's snapshot.
        """
        conflicts = self.conflicts(trans)
        if conflicts:
            raise TransactionAborted(
                f"write-write conflict on {len(conflicts)} tuple(s)"
            )
        self.apply(trans.layer.entries)

    def apply(self, entries: Sequence[DeltaEntry]) -> None:
        """Fold committed entries, re-sequenced, into a copy-on-write
        Write-PDT: a commit, a WAL replay or a resolved in-doubt txn."""
        new_write = self.write.copy()
        new_write.extend([replace(entry, seq=next(self._seq))
                          for entry in entries])
        self.write = new_write
        # a fresh insert cannot conflict
        written = {entry.target for entry in entries
                   if entry.kind is not EntryKind.INSERT}
        self.version += 1
        self._commit_log.append((self.version, written))
        self._maybe_flush()

    def conflicts(self, trans: TransPdt) -> Set[int]:
        """The codes ``trans`` deleted or modified that a transaction
        committed after its snapshot also wrote."""
        conflicts: Set[int] = set()
        if not trans.write_set:
            return conflicts
        for version, written in self._commit_log:
            if version > trans.snapshot_version:
                conflicts |= written & trans.write_set
        return conflicts

    # -- layer maintenance -------------------------------------------------------------

    def _maybe_flush(self) -> None:
        if len(self.write) >= self.flush_threshold:
            self.flush_write_to_read()

    def flush_write_to_read(self) -> None:
        """Propagate Write-PDT into the Read-PDT (threshold reached)."""
        new_read = self.read.copy()
        new_read.extend(self.write.entries)
        self.read = new_read
        self.write = PdtLayer()

    def clear_after_propagation(self,
                                kept: Sequence[DeltaEntry] = ()) -> None:
        """Called after update propagation flushed the stable image:
        ``kept`` are the entries it left for a later one (paper section
        6), from now on the Read-PDT."""
        self.read = PdtLayer(kept)
        self.write = PdtLayer()
        self._commit_log.clear()

    # -- statistics ---------------------------------------------------------------------

    def total_entries(self) -> int:
        return len(self.read) + len(self.write)
