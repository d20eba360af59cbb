"""Positional merging: applying a pile of delta entries to a stable image.

``apply_entries`` is the scan-side half of the PDT design: it merges the
differences into a table scan *by position*, with no key comparisons. The
union of the Read-, Write- and Trans-PDT entry lists shares one anchor
space (the stable on-disk image); ``classify_entries`` replays it into a
:class:`MergePlan`, whose :meth:`MergePlan.within` hands the table scan
the entries of one block-range. The scan merges a block-range only when
an insert or a modify touches it; deletes alone become its mask.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.compression.base import extended
from repro.engine.batch import as_column
from repro.pdt.entries import DeltaEntry, EntryKind


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


@dataclass
class MergePlan:
    """Classified delta entries, ready to merge (cacheable per version).
    Each kind is in the order of the stable row it touches, so the
    entries of a row range are found by bisection (:meth:`within`)."""

    deleted: List[int]  # stable sids, ascending
    mods_stable: Dict[int, Dict[str, object]]  # keyed in ascending sid
    inserts: List[DeltaEntry]  # live, sorted by (anchor, seq)

    def __post_init__(self):
        self.anchors = [e.anchor_sid for e in self.inserts]
        self.modified = list(self.mods_stable)

    def n_rows(self, n_stable: int) -> int:
        """Rows of ``n_stable`` stable ones once these entries apply (a
        modify moves no count)."""
        return n_stable - len(self.deleted) + len(self.inserts)

    @cached_property
    def pins(self) -> List[int]:
        """The stable rows an insert is anchored at or a modify writes,
        ascending."""
        return sorted(self.anchors + self.modified)

    def written(self) -> Iterator[Tuple[int, str, object]]:
        """``(row, column, value)`` for every value the entries make
        visible: an insert's at its anchor, a modify's at its stable
        row."""
        for entry in self.inserts:
            for name, value in entry.values.items():
                yield entry.anchor_sid, name, value
        for sid, changed in self.mods_stable.items():
            for name, value in changed.items():
                yield sid, name, value

    def tail(self, n_stable: int,
             names: Sequence[str]) -> Dict[str, list]:
        """The columns ``names`` of the live inserts anchored past the
        last of ``n_stable`` stable rows (the tail), in commit order; a
        modified one with its final values."""
        tail = sorted(self.inserts[bisect_left(self.anchors, n_stable):],
                      key=attrgetter("seq"))
        return {name: [e.values[name] for e in tail] for name in names}

    def may_disorder(self, n_stable: int, cluster_key) -> bool:
        """Can merging the live inserts by position leave rows of a
        partition with ``n_stable`` stable rows out of cluster order? One
        anchored inside the stable image can (inserts at one anchor come
        in commit order). Tail inserts follow every stable row and each
        other in commit order, which is cluster order only while their
        keys ascend."""
        if self.anchors and self.anchors[0] < n_stable:
            return True
        keys = [np.array([e.values[c] for e in self.inserts])
                for c in reversed(cluster_key)]
        # a stable sort of keys already in order moves nothing
        return bool((np.lexsort(keys) != np.arange(len(self.inserts))).any())

    def within(self, lo: int, hi: int,
               tail_from: Optional[int] = None) -> "MergePlan":
        """The entries touching stable rows ``[lo, hi)`` and, given
        ``tail_from``, the inserts anchored at or past it -- the same
        entry objects, none cloned."""
        anchors, modified = self.anchors, self.modified
        inserts = self.inserts[bisect_left(anchors, lo):
                               bisect_left(anchors, hi)]
        if tail_from is not None:
            inserts += self.inserts[bisect_left(anchors, max(hi, tail_from)):]
        return MergePlan(
            self.deleted[bisect_left(self.deleted, lo):
                         bisect_left(self.deleted, hi)],
            {sid: self.mods_stable[sid] for sid in modified[
                bisect_left(modified, lo): bisect_left(modified, hi)]},
            inserts)


def classify_entries(entries: Sequence[DeltaEntry]) -> MergePlan:
    """Replay entries in commit order into a ready-to-merge plan.

    In the real system the PDT *is* this structure; deriving it from the
    flat entry log per scan would be wasted work, so callers may cache the
    result per snapshot -- see StoredTable._committed.
    """
    deleted_sids: set = set()
    live_inserts: Dict[int, DeltaEntry] = {}  # code -> entry
    mods_stable: Dict[int, Dict[str, object]] = {}
    for entry in sorted(entries, key=attrgetter("seq")):
        target = entry.target
        if entry.kind is EntryKind.INSERT:
            live_inserts[target] = entry
        elif entry.kind is EntryKind.DELETE:
            if target >= 0:
                deleted_sids.add(target)
            else:
                live_inserts.pop(target, None)
        else:  # MODIFY
            if target >= 0:
                mods_stable.setdefault(target, {}).update(entry.values)
            elif target in live_inserts:
                ins = live_inserts[target]
                merged = dict(ins.values)
                merged.update(entry.values)
                live_inserts[target] = replace(ins, values=merged)
    inserts = sorted(live_inserts.values(),
                     key=attrgetter("anchor_sid", "seq"))
    return MergePlan(sorted(deleted_sids), dict(sorted(mods_stable.items())),
                     inserts)


def apply_entries(
    stable_columns: Mapping[str, np.ndarray],
    n_stable: int,
    entries: Sequence[DeltaEntry],
    columns_wanted: Sequence[str] | None = None,
    plan: Optional[MergePlan] = None,
    base: int = 0,
) -> MergeResult:
    """Merge delta entries into the stable image, positionally.

    Output order: for each stable anchor ``s`` ascending, first the inserts
    anchored at ``s`` (in commit-sequence order), then stable tuple ``s``
    itself unless deleted; modifies overlay the targeted tuple's values with
    last-writer-wins per column. Pass ``plan`` to reuse a cached
    classification of the same entries. A dictionary-coded stable column
    stays coded, a :class:`~repro.compression.base.StringImage` stays an
    image: the entries' strings join its dictionary or its buffer.

    ``base``: the stable columns are the partition's rows ``[base, base +
    n_stable)``, and ``plan`` holds the entries of those rows (inserts
    anchored past them come last) -- one block-range of a scan
    (:meth:`MergePlan.within`). Identities stay the partition's.
    """
    names = list(columns_wanted) if columns_wanted is not None else list(
        stable_columns
    )
    if not entries:
        cols = {c: as_column(stable_columns[c]) for c in names}
        identities = np.arange(base, base + n_stable, dtype=np.int64)
        return MergeResult(cols, identities, n_stable, n_stable)

    if plan is None:
        plan = classify_entries(entries)
    inserts = plan.inserts

    # positions below are the rows of ``stable_columns``
    keep = np.ones(n_stable, dtype=bool)
    if plan.deleted:
        keep[np.asarray(plan.deleted, dtype=np.int64) - base] = False
    kept_sids = np.flatnonzero(keep)

    n_ins = len(inserts)
    n_kept = len(kept_sids)
    total = n_kept + n_ins
    tail_only = all(e.anchor_sid >= base + n_stable for e in inserts)

    if tail_only:
        # Fast path (the dominant case: trickle appends + deletes): kept
        # stable rows in order, inserts appended -- no interleaving sort.
        stable_positions = np.arange(n_kept)
        gather_sids = kept_sids
        ins_src = np.arange(n_ins)
        insert_positions = n_kept + ins_src
    else:
        # Interleave kept stable tuples and inserts by (anchor, rank, seq).
        anchor = np.concatenate([
            kept_sids,
            np.fromiter((e.anchor_sid for e in inserts), np.int64, n_ins)
            - base,
        ])
        rank = np.concatenate([
            np.ones(n_kept, np.int64), np.zeros(n_ins, np.int64),
        ])
        seq = np.concatenate([
            np.zeros(n_kept, np.int64),
            np.fromiter((e.seq for e in inserts), np.int64, n_ins),
        ])
        order = np.lexsort((seq, rank, anchor))
        is_stable_src = order < n_kept
        stable_positions = np.flatnonzero(is_stable_src)
        insert_positions = np.flatnonzero(~is_stable_src)
        gather_sids = kept_sids[order[is_stable_src]]
        ins_src = order[~is_stable_src] - n_kept

    out_identities = np.empty(total, dtype=np.int64)
    out_identities[stable_positions] = gather_sids + base
    if n_ins:
        out_identities[insert_positions] = np.fromiter(
            (inserts[i].target for i in ins_src), np.int64, n_ins)

    # Each output row is taken from the stable rows followed by the
    # values the entries write: the inserted rows' (in ``ins_src`` order),
    # then the column's modified ones.
    inserted = np.empty(total, dtype=np.intp)
    inserted[stable_positions] = gather_sids
    inserted[insert_positions] = np.arange(n_stable, n_stable + n_ins)
    columns: Dict[str, np.ndarray] = {}
    ins_order = ins_src.tolist()
    for name in names:
        values = [inserts[i].values[name] for i in ins_order]
        modified = []
        for sid, colvals in plan.mods_stable.items():
            sid -= base
            if name not in colvals or not keep[sid]:
                continue
            # gather_sids is sorted in both paths, so locate by bisection
            pos = int(np.searchsorted(gather_sids, sid))
            if pos < len(gather_sids) and gather_sids[pos] == sid:
                modified.append(int(stable_positions[pos]))
                values.append(colvals[name])
        index = inserted
        if modified:
            index = inserted.copy()
            index[modified] = np.arange(n_stable + n_ins, n_stable + len(values))
        # a coded column's dictionary, an image's buffer takes the
        # entries' strings: the stable rows stay as they are stored
        columns[name] = extended(stable_columns[name], values)[index]

    return MergeResult(columns, out_identities, total, n_stable)


def beside_tail(entries: Sequence[DeltaEntry],
                n_stable: int) -> Tuple[Set[int], List[DeltaEntry]]:
    """The codes of the tail inserts of ``entries`` (anchored past the
    last of ``n_stable`` stable rows), and ``entries`` without them and
    the deletes and modifies of them: what a tail flush leaves in the
    PDT."""
    tail = {e.target for e in entries
            if e.kind is EntryKind.INSERT and e.anchor_sid >= n_stable}
    return tail, [e for e in entries if e.target not in tail]


class PdtLayer:
    """One PDT layer: an ordered collection of delta entries.

    Layers are value-like: commit creates a *new* Write-PDT layer
    (copy-on-write) so snapshots held by running queries stay stable.
    """

    def __init__(self, entries: Sequence[DeltaEntry] = ()):
        self.entries: List[DeltaEntry] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: DeltaEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: Sequence[DeltaEntry]) -> None:
        self.entries.extend(entries)

    def copy(self) -> "PdtLayer":
        """A new layer sharing the (never mutated) entries."""
        return PdtLayer(self.entries)
