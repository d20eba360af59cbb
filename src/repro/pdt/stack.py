"""PDT stacking, snapshot isolation and optimistic concurrency control.

Per table partition VectorH keeps (paper section 6):

* a large, slow-moving **Read-PDT** of differences against the stable image;
* a small **Write-PDT** stacked on it; commits are copy-on-write, so every
  running query keeps seeing the layers it started with -- this *is* the
  snapshot-isolation mechanism;
* a private **Trans-PDT** per transaction, stacked on top of it all.

On commit the Trans-PDT is *serialized* against the current master state:
write-write conflicts are detected at tuple granularity (any identity the
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
from repro.pdt.entries import (
    DeltaEntry,
    EntryKind,
    Identity,
    encode_identity,
    next_uid,
)
from repro.pdt.layer import PdtLayer

_TRANS_SEQ_BASE = 1 << 40  # trans entries order after all committed entries


class TransPdt:
    """A transaction's private delta layer over one partition."""

    def __init__(self, stack: "PdtStack", snapshot_version: int,
                 read_layer: PdtLayer, write_layer: PdtLayer):
        self._stack = stack
        self.snapshot_version = snapshot_version
        #: the stack's layers when the transaction began: its snapshot
        self.read = read_layer
        self.write = write_layer
        self.layer = PdtLayer()
        self._local_seq = itertools.count(0)
        self.write_set: Set[int] = set()  # encoded identities written

    # -- update API -------------------------------------------------------------

    def insert(self, anchor_sid: int, values: Dict[str, object]) -> int:
        """Insert a row before stable position ``anchor_sid``; returns uid."""
        uid = next_uid()
        self.layer.add(DeltaEntry(
            kind=EntryKind.INSERT,
            anchor_sid=anchor_sid,
            seq=_TRANS_SEQ_BASE + next(self._local_seq),
            uid=uid,
            values=dict(values),
        ))
        return uid

    def delete(self, target: Identity, anchor_sid: int = 0) -> None:
        self.layer.add(DeltaEntry(
            kind=EntryKind.DELETE,
            anchor_sid=anchor_sid,
            seq=_TRANS_SEQ_BASE + next(self._local_seq),
            target=target,
        ))
        self.write_set.add(encode_identity(target))

    def modify(self, target: Identity, values: Dict[str, object],
               anchor_sid: int = 0) -> None:
        self.layer.add(DeltaEntry(
            kind=EntryKind.MODIFY,
            anchor_sid=anchor_sid,
            seq=_TRANS_SEQ_BASE + next(self._local_seq),
            target=target,
            values=dict(values),
        ))
        self.write_set.add(encode_identity(target))

    # -- scan support --------------------------------------------------------------

    def visible_entries(self) -> List[DeltaEntry]:
        """All entries a scan inside this transaction must merge."""
        return self.read.entries + self.write.entries + self.layer.entries

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
        # (version, identities-written) per commit, for conflict detection.
        self._commit_log: List[Tuple[int, Set[int]]] = []

    # -- snapshots ----------------------------------------------------------------

    def begin(self) -> TransPdt:
        """Start a transaction: an empty Trans-PDT over the current layers."""
        return TransPdt(self, self.version, self.read, self.write)

    def scan_entries(self, trans: Optional[TransPdt] = None) -> List[DeltaEntry]:
        if trans is not None:
            return trans.visible_entries()
        return self.read.entries + self.write.entries

    # -- commit (PDT serialization, paper section 6) ---------------------------------

    def commit(self, trans: TransPdt) -> List[DeltaEntry]:
        """Serialize a Trans-PDT into the master state.

        Raises :class:`TransactionAborted` on a write-write conflict with
        any transaction that committed after this one's snapshot. Returns
        the re-sequenced entries (the WAL record payload).
        """
        conflicts = self._conflicting_identities(
            trans.snapshot_version, trans.write_set
        )
        if conflicts:
            raise TransactionAborted(
                f"write-write conflict on {len(conflicts)} tuple(s)"
            )
        committed = [replace(entry, seq=next(self._seq)) for entry in
                     sorted(trans.layer.entries, key=lambda e: e.seq)]
        # Copy-on-write: running queries keep the old Write-PDT layer.
        new_write = self.write.copy()
        new_write.extend(committed)
        self.write = new_write
        self.version += 1
        self._commit_log.append((self.version, set(trans.write_set)))
        self._maybe_flush()
        return committed

    def apply_replicated(self, entries: Sequence[DeltaEntry]) -> None:
        """Apply log-shipped entries from the responsible node verbatim.

        Used for replicated (non-partitioned) tables: every worker replays
        the same committed entries so local scans see the latest image.
        """
        new_write = self.write.copy()
        written: Set[int] = set()
        for entry in entries:
            new_write.add(replace(entry, seq=next(self._seq)))
            identity = entry.identity_written()
            if identity is not None:
                written.add(encode_identity(identity))
        self.write = new_write
        self.version += 1
        self._commit_log.append((self.version, written))
        self._maybe_flush()

    def _conflicting_identities(self, snapshot_version: int,
                                write_set: Set[int]) -> Set[int]:
        if not write_set:
            return set()
        conflicts: Set[int] = set()
        for version, written in self._commit_log:
            if version > snapshot_version:
                conflicts |= written & write_set
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
