"""Positional merging: applying a pile of delta batches to a stable image.

``apply_entries`` is the scan-side half of the PDT design: it merges the
differences into a table scan *by position*, with no key comparisons. The
union of the Read-, Write- and Trans-PDT batches shares one anchor space
(the stable on-disk image); ``classify_entries`` replays it into a
:class:`MergePlan` of row-aligned arrays (no row is a Python object),
whose :meth:`MergePlan.within` hands the table scan the entries of one
piece. The scan merges a piece only when an insert or a modify touches
it; deletes alone become its mask. A :class:`PdtLayer` holds batches
and counts their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import extended
from repro.pdt.entries import DeltaBatch, EntryKind

_NO_CODES = np.zeros(0, dtype=np.int64)


@dataclass
class MergeResult:
    """The up-to-date image of (a row range of) one table partition.

    ``identities`` is aligned with the merged rows: ``identities[rid]`` is
    the row's code (stable SID >= 0, inserts < 0), which is how update
    queries address tuples.
    """

    columns: Dict[str, np.ndarray]
    identities: np.ndarray  # int64, the code of each output row
    n_rows: int
    n_stable: int


class _Inserted(dict):
    """The values of the inserts of a set of batches, column by column,
    each built when it is first asked for: every insert batch's rows in
    commit order, with the modifies of them applied (``writes``: per
    column, the positions they write and the last value of each). A plan
    and the plans :meth:`MergePlan.within` cuts from it share one."""

    def __init__(self, batches: List[DeltaBatch],
                 writes: Dict[str, Tuple[np.ndarray, np.ndarray]]):
        super().__init__()
        self.names = list(batches[0].columns) if batches else []
        self.batches, self.writes = batches, writes

    def __missing__(self, name: str) -> np.ndarray:
        column = self[name] = np.concatenate(
            [b.columns[name] for b in self.batches])
        if name in self.writes:
            at, values = self.writes[name]
            column[at] = values
        return column


@dataclass
class MergePlan:
    """Classified delta batches, ready to merge (cacheable per version):
    row-aligned arrays, each part in the order of the stable row it
    touches, so the entries of a row range are found by bisection
    (:meth:`within`)."""

    #: stable sids deleted, ascending
    deleted: np.ndarray
    #: per column a modify writes: the stable sids it writes (ascending)
    #: and the value each ends with
    mods: Dict[str, Tuple[np.ndarray, np.ndarray]]
    #: the live inserts, sorted by (anchor, commit order): their codes,
    #: anchors and positions in commit order among all inserts
    targets: np.ndarray
    anchors: np.ndarray
    order: np.ndarray
    inserted: _Inserted

    def values(self, name: str) -> np.ndarray:
        """Column ``name`` of the live inserts (modifies applied)."""
        return self.inserted[name][self.order]

    def n_rows(self, n_stable: int) -> int:
        """Rows of ``n_stable`` stable ones once these entries apply (a
        modify moves no count)."""
        return n_stable - len(self.deleted) + len(self.targets)

    @cached_property
    def pins(self) -> np.ndarray:
        """The stable rows an insert is anchored at or a modify writes,
        ascending."""
        return np.sort(np.concatenate(
            [self.anchors] + [sids for sids, _ in self.mods.values()]))

    def written(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        """``(column, rows, values)`` for the values the entries make
        visible: the inserts' at their anchors, a modify's at its stable
        row."""
        for name in self.inserted.names:
            yield name, self.anchors, self.values(name)
        for name, (sids, values) in self.mods.items():
            yield name, sids, values

    def tail(self, n_stable: int,
             names: Sequence[str]) -> Dict[str, np.ndarray]:
        """The columns ``names`` of the live inserts anchored past the
        last of ``n_stable`` stable rows (the tail), in commit order; a
        modified one with its final values."""
        rows = np.sort(self.order[np.searchsorted(self.anchors, n_stable):])
        return {name: self.inserted[name][rows] for name in names}

    def may_disorder(self, n_stable: int, cluster_key) -> bool:
        """Can merging the live inserts by position leave rows of a
        partition with ``n_stable`` stable rows out of cluster order? One
        anchored inside the stable image can (inserts at one anchor come
        in commit order). Tail inserts follow every stable row and each
        other in commit order, which is cluster order only while their
        keys ascend."""
        if not len(self.anchors):
            return False
        if self.anchors[0] < n_stable:
            return True
        keys = [self.values(c) for c in reversed(cluster_key)]
        # a stable sort of keys already in order moves nothing
        return bool((np.lexsort(keys) != np.arange(len(self.anchors))).any())

    def within(self, lo: int, hi: int,
               tail_from: Optional[int] = None) -> "MergePlan":
        """The entries touching stable rows ``[lo, hi)`` and, given
        ``tail_from``, the inserts anchored at or past it."""
        anchors = self.anchors
        first, last = np.searchsorted(anchors, (lo, hi))
        rows = slice(first, last)
        if tail_from is not None:
            tail = np.searchsorted(anchors, max(hi, tail_from))
            rows = np.r_[first:last, tail:len(anchors)]
        mods = {}
        for name, (sids, values) in self.mods.items():
            start, end = np.searchsorted(sids, (lo, hi))
            if end > start:
                mods[name] = sids[start:end], values[start:end]
        start, end = np.searchsorted(self.deleted, (lo, hi))
        return MergePlan(self.deleted[start:end], mods, self.targets[rows],
                         self.anchors[rows], self.order[rows], self.inserted)


def lookup(codes: np.ndarray, wanted: np.ndarray):
    """Where each of ``wanted`` sits in ``codes`` (distinct, in any
    order, at least one), and whether it is there at all."""
    sorter = np.argsort(codes)
    at = sorter[np.minimum(np.searchsorted(codes, wanted, sorter=sorter),
                           len(codes) - 1)]
    return at, codes[at] == wanted


def concat(arrays: List[np.ndarray]) -> np.ndarray:
    """``arrays`` one after the other (no codes when there are none)."""
    return np.concatenate(arrays) if arrays else _NO_CODES


def _ascend(codes: np.ndarray) -> bool:
    """Are ``codes`` distinct and ascending already, as the stable rows
    a scan hands on are? Then nothing needs sorting."""
    return len(codes) < 2 or bool((codes[1:] > codes[:-1]).all())


def _last_writes(codes: np.ndarray, batches: int):
    """The distinct ``codes`` of ``batches`` batches, ascending, and the
    rows of the last write of each (all rows of one ascending batch)."""
    if batches == 1 and _ascend(codes):
        return codes, slice(None)
    distinct, first = np.unique(codes[::-1], return_index=True)
    return distinct, len(codes) - 1 - first


def classify_entries(batches: Sequence[DeltaBatch]) -> MergePlan:
    """Replay batches in commit order into a ready-to-merge plan.

    In the real system the PDT *is* this structure; deriving it from the
    batches per scan would be wasted work, so callers may cache the
    result per snapshot -- see StoredTable._committed.
    """
    batches = sorted(batches, key=attrgetter("seq"))
    inserts = [b for b in batches if b.kind is EntryKind.INSERT]
    modifies = [b for b in batches if b.kind is EntryKind.MODIFY]
    deletes = [b.targets for b in batches if b.kind is EntryKind.DELETE]
    gone = concat(deletes)
    # every insert, in commit order: a row's position is its rank
    targets = concat([b.targets for b in inserts])
    anchors = concat([b.anchors for b in inserts])
    mods, writes = {}, {}
    for name in dict.fromkeys(n for b in modifies for n in b.columns):
        writers = [b for b in modifies if name in b.columns]
        codes, last = _last_writes(concat([b.targets for b in writers]),
                                   len(writers))
        written = np.concatenate([b.columns[name] for b in writers])[last]
        # codes ascend: the inserts' (negative) ones come first
        fresh = int(np.searchsorted(codes, 0))
        if fresh and len(targets):
            at, found = lookup(targets, codes[:fresh])
            writes[name] = at[found], written[:fresh][found]
        if fresh < len(codes):
            mods[name] = codes[fresh:], written[fresh:]
    dead = gone[gone < 0]
    rows = (np.flatnonzero(~np.isin(targets, dead)) if len(dead)
            else np.arange(len(targets)))
    if len(rows) > 1:
        rows = rows[np.argsort(anchors[rows], kind="stable")]
    deleted = gone[gone >= 0]
    if len(deletes) > 1 or not _ascend(deleted):
        deleted = np.unique(deleted)
    return MergePlan(deleted, mods, targets[rows], anchors[rows], rows,
                     _Inserted(inserts, writes))


def apply_entries(
    stable_columns: Mapping[str, np.ndarray],
    n_stable: int,
    entries: Sequence[DeltaBatch],
    columns_wanted: Sequence[str] | None = None,
    plan: Optional[MergePlan] = None,
    base: int = 0,
) -> MergeResult:
    """Merge delta batches into the stable image, positionally.

    Output order: for each stable anchor ``s`` ascending, first the inserts
    anchored at ``s`` (in commit order), then stable tuple ``s`` itself
    unless deleted; modifies overlay the targeted tuple's values with
    last-writer-wins per column. Pass ``plan`` to reuse a cached
    classification of the same batches. A dictionary-coded stable column
    stays coded, a :class:`~repro.compression.base.StringImage` stays an
    image: the entries' strings join its dictionary or its buffer.

    ``base``: the stable columns are the partition's rows ``[base, base +
    n_stable)``, and ``plan`` holds the entries of those rows (inserts
    anchored past them come last) -- one piece of a scan
    (:meth:`MergePlan.within`). Identities stay the partition's.
    """
    names = list(columns_wanted) if columns_wanted is not None else list(
        stable_columns
    )
    if plan is None:
        plan = classify_entries(entries)

    # positions below are the rows of ``stable_columns``
    keep = np.ones(n_stable, dtype=bool)
    keep[plan.deleted - base] = False
    kept = np.flatnonzero(keep)
    n_ins = len(plan.targets)
    total = len(kept) + n_ins
    # Both sides come in output order (the inserts by anchor, then in
    # commit order): an insert follows the kept rows before its anchor
    # and the inserts before it.
    is_insert = np.zeros(total, dtype=bool)
    is_insert[np.searchsorted(kept, plan.anchors - base)
              + np.arange(n_ins)] = True
    stable_positions = np.flatnonzero(~is_insert)
    # Each output row is taken from the stable rows followed by the
    # values the entries write: the inserted rows', then the column's
    # modified ones.
    inserted = np.empty(total, dtype=np.intp)
    inserted[stable_positions] = kept
    inserted[is_insert] = np.arange(n_stable, n_stable + n_ins)
    identities = inserted.astype(np.int64) + base
    identities[is_insert] = plan.targets
    columns: Dict[str, np.ndarray] = {}
    for name in names:
        parts = [plan.values(name)] if n_ins else []
        index = inserted
        if name in plan.mods:
            sids, values = plan.mods[name]
            alive = keep[sids - base]
            at = stable_positions[np.searchsorted(kept, sids[alive] - base)]
            index = inserted.copy()
            index[at] = np.arange(n_stable + n_ins,
                                  n_stable + n_ins + len(at))
            parts.append(values[alive])
        # a coded column's dictionary, an image's buffer takes the
        # entries' strings: the stable rows stay as they are stored
        columns[name] = extended(stable_columns[name], concat(parts))[index]

    return MergeResult(columns, identities, total, n_stable)


def beside_tail(batches: Sequence[DeltaBatch],
                n_stable: int) -> Tuple[int, List[DeltaBatch]]:
    """How many tail inserts ``batches`` hold (anchored past the last of
    ``n_stable`` stable rows), and ``batches`` without them and the
    deletes and modifies of them: what a tail flush leaves in the
    PDT."""
    tail = concat([b.targets[b.anchors >= n_stable] for b in batches
                   if b.kind is EntryKind.INSERT])
    kept = []
    for batch in batches:
        if batch.kind is not EntryKind.INSERT and batch.targets.min() >= 0:
            kept.append(batch)  # it writes stable rows only
            continue
        stays = (batch.anchors < n_stable if batch.kind is EntryKind.INSERT
                 else ~np.isin(batch.targets, tail))
        if stays.all():
            kept.append(batch)
        elif stays.any():
            kept.append(batch.take(stays))
    return len(tail), kept


class PdtLayer:
    """One PDT layer: an ordered collection of delta batches; its length
    is the rows they hold.

    Layers are value-like: commit creates a *new* Write-PDT layer
    (copy-on-write, sharing the never changed batches) so snapshots held
    by running queries stay stable.
    """

    def __init__(self, batches: Sequence[DeltaBatch] = ()):
        self.batches: List[DeltaBatch] = list(batches)
        self.rows = sum(map(len, self.batches))

    def __len__(self) -> int:
        return self.rows

    def add(self, batch: DeltaBatch) -> None:
        self.batches.append(batch)
        self.rows += len(batch)
