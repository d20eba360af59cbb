"""Unclustered (secondary) indexes (paper section 2).

Vectorwise "also provides unclustered indexes (i.e. real index trees),
which can help queries that access a few tuples to avoid a table scan."
Here the tree is a per-partition sorted (value, SID) pair array probed
with binary search -- same asymptotics, vector-friendly storage. Lookups
are PDT-aware: deleted stable tuples are filtered out, modified values
are re-checked, and in-memory inserted tuples are matched from the delta
entries, so the index answers from the *latest* image without touching
disk blocks the probe does not need. Indexes are rebuilt as part of
update propagation, like MinMax indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.pdt.entries import EntryKind
from repro.pdt.stack import TransPdt
from repro.storage.buffer import BufferPool
from repro.storage.table import StoredTable


@dataclass
class _PartitionIndex:
    sorted_values: np.ndarray
    sids: np.ndarray  # aligned with sorted_values


class SecondaryIndex:
    """A point-lookup index on one column of a stored table."""

    def __init__(self, table: StoredTable, column: str):
        table.schema.column(column)  # validates
        self.table = table
        self.column = column
        self._partitions: Dict[int, _PartitionIndex] = {}
        self.build()

    # ------------------------------------------------------------------ build

    def build(self) -> None:
        """(Re)build from the stable image of every partition."""
        for pid in range(self.table.n_partitions):
            self.rebuild_partition(pid)

    def rebuild_partition(self, pid: int,
                          reader: Optional[str] = None,
                          pool: Optional[BufferPool] = None) -> None:
        # the index searches values, so a coded column is spelled out
        values = np.asarray(self.table.partitions[pid].read_column(
            self.column, reader=reader, pool=pool
        ))
        order = np.argsort(values, kind="stable")
        self._partitions[pid] = _PartitionIndex(values[order],
                                                order.astype(np.int64))

    # ------------------------------------------------------------------ probes

    def lookup(self, value, columns: Sequence[str],
               trans: Optional[object] = None,
               reader: Optional[str] = None,
               pool: Optional[BufferPool] = None) -> Dict[str, np.ndarray]:
        """Fetch the rows where ``column == value``, PDT-aware.

        ``value`` is compared in storage representation (ints for DECIMAL
        cents, epoch days for dates).
        """
        out: Dict[str, list] = {c: [] for c in columns}
        for pid in range(self.table.n_partitions):
            self._lookup_partition(pid, value, columns, trans, reader,
                                   pool, out)
        return {c: _to_array(vals) for c, vals in out.items()}

    def _lookup_partition(self, pid, value, columns, trans, reader, pool,
                          out) -> None:
        index = self._partitions.get(pid)
        if index is None:
            raise StorageError(f"index not built for partition {pid}")
        stack = self.table.pdt[pid]
        entries = (trans.visible_entries() if isinstance(trans, TransPdt)
                   else stack.scan_entries())
        deleted, modified, inserted = _classify(entries, self.column)

        lo = np.searchsorted(index.sorted_values, value, side="left")
        hi = np.searchsorted(index.sorted_values, value, side="right")
        candidate_sids = [int(s) for s in index.sids[lo:hi]]
        # stable tuples whose indexed value was modified *to* the probe
        # value are found via the PDT, not the (stale) index
        candidate_sids.extend(
            sid for sid, new_value in modified.items()
            if new_value == value and sid not in candidate_sids
        )
        store = self.table.partitions[pid]
        for sid in candidate_sids:
            if sid in deleted:
                continue
            if sid in modified and modified[sid] != value:
                continue  # modified away from the probe value
            row = store.read_columns(columns, ranges=[(sid, sid + 1)],
                                     reader=reader, pool=pool)
            overlay = _row_overlay(entries, sid)
            for c in columns:
                raw = overlay.get(c, row[c][0])
                out[c].append(_surface(self.table, c, raw))
        for values_dict in inserted:
            if values_dict.get(self.column) == value:
                for c in columns:
                    out[c].append(_surface(self.table, c, values_dict[c]))

    # ---------------------------------------------------------------- stats

    def memory_bytes(self) -> int:
        return sum(p.sorted_values.nbytes + p.sids.nbytes
                   for p in self._partitions.values()
                   if p.sorted_values.dtype != object)


def _classify(entries, column):
    """Split PDT entries into (deleted sids, {sid: new indexed value},
    [live inserted row dicts])."""
    deleted = set()
    modified: Dict[int, object] = {}
    live_inserts: Dict[int, dict] = {}
    for e in sorted(entries, key=lambda e: e.seq):
        if e.kind is EntryKind.INSERT:
            live_inserts[e.uid] = dict(e.values)
        elif e.kind is EntryKind.DELETE:
            tag, ref = e.target
            if tag == "s":
                deleted.add(ref)
            else:
                live_inserts.pop(ref, None)
        else:
            tag, ref = e.target
            if tag == "s":
                if column in e.values:
                    modified[ref] = e.values[column]
            elif ref in live_inserts:
                live_inserts[ref].update(e.values)
    return deleted, modified, list(live_inserts.values())


def _row_overlay(entries, sid) -> dict:
    """Latest modified values for one stable tuple."""
    overlay: dict = {}
    for e in sorted(entries, key=lambda e: e.seq):
        if (e.kind is EntryKind.MODIFY and e.target == ("s", sid)):
            overlay.update(e.values)
    return overlay


def _surface(table: StoredTable, column: str, raw):
    """Storage representation -> engine representation (decimals)."""
    scale = table._decimal_scale(column)
    if scale is not None:
        return float(raw) / scale
    return raw


def _to_array(values: list) -> np.ndarray:
    if values and isinstance(values[0], str):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    return np.asarray(values)
