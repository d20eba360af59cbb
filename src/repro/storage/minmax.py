"""MinMax indexes: small table summaries enabling scan skipping.

Per partition, per column, we keep [min, max] per tuple range (one range
per storage block of that column). Deletes are ignored; inserts and
modifies *widen* the range covering their anchor without rescanning old
values -- so skipping stays conservative and therefore correct even with a
populated PDT (paper section 6, "MinMax Indexes"). VectorH stores MinMax
data in the WAL, separate from the blocks, so consulting it never forces a
data read (unlike Parquet; paper section 2) -- here it is an in-memory
structure serializable into WAL records.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.compression.base import StringImage
from repro.engine.batch import DictColumn
from repro.engine.expressions import isin

#: The sargable comparisons -- with ``in``, :data:`TRIPLE_OPS`, the one
#: vocabulary shared by MinMax skipping and the scan's exact row filter.
OPS: Dict[str, Callable] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
}

#: every operator a triple carries; ``in`` takes the sorted array of its
#: values (as :meth:`ColumnType.storage_literal` gives it)
TRIPLE_OPS: Dict[str, Callable] = dict(OPS, **{"in": isin})


@dataclass
class _Range:
    row_start: int
    row_count: int
    min_value: object
    max_value: object

    @property
    def row_end(self) -> int:
        return self.row_start + self.row_count

    def widen(self, lo, hi) -> None:
        if lo < self.min_value:
            self.min_value = lo
        if hi > self.max_value:
            self.max_value = hi


@dataclass
class MinMaxIndex:
    """MinMax ranges for every column of one table partition."""

    ranges: Dict[str, List[_Range]] = field(default_factory=dict)

    def add_range(self, column: str, row_start: int, values) -> None:
        """Record a freshly written block's min/max (``values`` in any
        form a block is written from)."""
        if len(values) == 0:
            return
        self.ranges.setdefault(column, []).append(
            _Range(row_start, len(values), *_extremes(values))
        )

    # -- maintenance under updates -------------------------------------------------

    def widen_batch(self, column: str, anchor_sids: np.ndarray,
                    values: np.ndarray) -> None:
        """Widen the ranges covering ``anchor_sids`` for a batch of
        inserts or modifies (an insert's anchor, a modify's row) to take
        their ``values``. Cheap by design: extremes only grow, no old
        values are scanned. The rows are grouped by the range covering
        their anchor (the last range for anchors past the end; ranges are
        in row order, as ``add_range`` appends them) and each range is
        widened once, with its group's extremes."""
        ranges = self.ranges.get(column)
        if not ranges or len(values) == 0:
            return
        starts = np.fromiter((r.row_start for r in ranges), np.int64,
                             len(ranges))
        covering = np.searchsorted(starts, anchor_sids, side="right") - 1
        for i in np.unique(covering):
            ranges[i].widen(*_extremes(values[covering == i]))

    # -- skipping -------------------------------------------------------------------

    def range_may_qualify(self, column: str, op: str, literal,
                          row_start: int, row_end: int) -> bool:
        """Can any tuple in [row_start, row_end) satisfy ``col op literal``?"""
        ranges = self.ranges.get(column)
        if ranges is None:
            return True  # no stats, cannot skip
        for r in ranges:
            if r.row_end <= row_start or r.row_start >= row_end:
                continue
            if _interval_may_qualify(r.min_value, r.max_value, op, literal):
                return True
        return False

    def qualifying_ranges(
        self,
        predicates: Sequence[Tuple[str, str, object]],
        n_rows: int,
    ) -> List[Tuple[int, int]]:
        """Row ranges that may contain qualifying tuples.

        ``predicates`` are conjunctive ``(column, op, literal)`` triples.
        Granularity is the union of block boundaries of all predicate
        columns. Returns merged, sorted [start, end) ranges.
        """
        if not predicates or n_rows == 0:
            return [(0, n_rows)] if n_rows else []
        boundaries = {0, n_rows}
        for column, _, _ in predicates:
            for r in self.ranges.get(column, ()):
                boundaries.add(min(r.row_start, n_rows))
                boundaries.add(min(r.row_end, n_rows))
        edges = sorted(boundaries)
        kept: List[Tuple[int, int]] = []
        for start, end in zip(edges, edges[1:]):
            if start >= end:
                continue
            qualifies = all(
                self.range_may_qualify(col, op, lit, start, end)
                for col, op, lit in predicates
            )
            if qualifies:
                if kept and kept[-1][1] == start:
                    kept[-1] = (kept[-1][0], end)
                else:
                    kept.append((start, end))
        return kept

    # -- (de)serialization: MinMax lives in the WAL, not in data blocks -----------

    def to_record(self) -> dict:
        return {
            col: [(r.row_start, r.row_count, r.min_value, r.max_value)
                  for r in ranges]
            for col, ranges in self.ranges.items()
        }

    @classmethod
    def from_record(cls, record: dict) -> "MinMaxIndex":
        idx = cls()
        for col, ranges in record.items():
            idx.ranges[col] = [
                _Range(s, c, lo, hi) for (s, c, lo, hi) in ranges
            ]
        return idx


def _extremes(values):
    """The least and the greatest of non-empty ``values``, as Python
    values (which a WAL record pickles small): of a coded column, its
    least and greatest code's entries (the dictionary is sorted); of a
    string image, as its bytes order them."""
    if isinstance(values, DictColumn):
        dictionary, codes = values.dictionary, values.codes
        return dictionary[codes.min()], dictionary[codes.max()]
    if isinstance(values, StringImage):
        return values.extremes()
    if values.dtype == object:
        return min(values), max(values)
    return values.min().item(), values.max().item()


def _interval_may_qualify(lo, hi, op: str, literal) -> bool:
    """Can a value in [lo, hi] satisfy ``value op literal``? (``in``: is
    the least of the sorted values not below ``lo`` at most ``hi``?)"""
    if op == "=":
        return lo <= literal <= hi
    if op == "in":
        at = np.searchsorted(literal, lo)
        return bool(at < len(literal) and literal[at] <= hi)
    # the low end is the best witness for < and <=, the high end for > and >=
    return OPS[op](lo if op[0] == "<" else hi, literal)
