"""MinMax indexes: small table summaries enabling scan skipping.

Per partition, per column, we keep [min, max] per tuple range (one range
per storage block of that column) in four arrays. Deletes are ignored;
inserts and modifies *widen* the range covering their anchor without
rescanning old values -- so skipping stays conservative and therefore
correct even with a populated PDT (paper section 6, "MinMax Indexes").
A skip compares all ranges of a column at once and keeps their rows in
one linear pass. VectorH stores MinMax data in the WAL, separate from
the blocks, so consulting it never forces a data read (unlike Parquet;
paper section 2) -- here it is an in-memory structure whose WAL record
is ``{column: [(start, count, min, max), ...]}`` of Python scalars.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

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


class ColumnRanges(NamedTuple):
    """One column's ranges, in row order: range ``i`` holds the rows
    ``[starts[i], ends[i])``, whose values lie in ``[mins[i], maxs[i]]``
    (of the column's storage dtype, ``object`` for strings)."""

    starts: np.ndarray
    ends: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray


@dataclass
class MinMaxIndex:
    """MinMax ranges for every column of one table partition: per
    column, a :class:`ColumnRanges`, four arrays of one entry per block."""

    ranges: Dict[str, ColumnRanges] = field(default_factory=dict)

    def add_range(self, column: str, row_start: int, values) -> None:
        """Record a freshly written block's min/max (``values`` in any
        form a block is written from)."""
        if len(values) == 0:
            return
        dtype = values.dtype if isinstance(values, np.ndarray) else object
        lo, hi = _extremes(values)
        new = ColumnRanges(np.array([row_start], np.int64),
                           np.array([row_start + len(values)], np.int64),
                           np.array([lo], dtype), np.array([hi], dtype))
        old = self.ranges.get(column)
        self.ranges[column] = (new if old is None else ColumnRanges(
            *map(np.concatenate, zip(old, new))))

    # -- maintenance under updates -------------------------------------------------

    def widen_batch(self, column: str, anchor_sids: np.ndarray,
                    values: np.ndarray) -> None:
        """Widen the ranges covering ``anchor_sids`` for a batch of
        inserts or modifies (an insert's anchor, a modify's row) to take
        their ``values`` (the last range for anchors past the end). Cheap
        by design: extremes only grow, no old values are scanned.
        ``values`` must cast safely to the ranges' dtype (a replayed
        record holds an int column as int64), or it raises: nothing is
        truncated."""
        ranges = self.ranges.get(column)
        if ranges is None:
            return
        values = values.astype(ranges.mins.dtype, casting="safe", copy=False)
        # ranges start at row 0, so the range holding a row is the number
        # of later ranges that start at or before it
        covering = ranges.starts[1:].searchsorted(anchor_sids, "right")
        np.minimum.at(ranges.mins, covering, values)
        np.maximum.at(ranges.maxs, covering, values)

    # -- skipping -------------------------------------------------------------------

    def qualifying_ranges(
        self,
        predicates: Sequence[Tuple[str, str, object]],
        n_rows: int,
    ) -> List[Tuple[int, int]]:
        """Merged, sorted [start, end) ranges of the first ``n_rows`` rows
        that may hold tuples satisfying ``predicates``, conjunctive
        ``(column, op, literal)`` triples: the rows that, for every
        predicate on a column with stats, lie in a range of that column
        that may qualify (a row past the column's ranges does not)."""
        kept = [(0, n_rows)] if n_rows else []
        for column, op, literal in predicates:
            ranges = self.ranges.get(column)
            if ranges is not None:  # no stats, cannot skip
                may = may_qualify(ranges.mins, ranges.maxs, op, literal)
                kept = _intersect(kept, _runs(ranges.starts.tolist(),
                                              ranges.ends.tolist(),
                                              may.tolist()))
        return kept

    # -- (de)serialization: MinMax lives in the WAL, not in data blocks -----------

    def to_record(self) -> dict:
        return {
            col: list(zip(r.starts.tolist(), (r.ends - r.starts).tolist(),
                          r.mins.tolist(), r.maxs.tolist()))
            for col, r in self.ranges.items()
        }

    @classmethod
    def from_record(cls, record: dict) -> "MinMaxIndex":
        idx = cls()
        for col, ranges in record.items():
            starts, counts, lows, highs = zip(*ranges)
            # Python scalars: a str is a string column's
            dtype = object if isinstance(lows[0], str) else None
            idx.ranges[col] = ColumnRanges(
                np.array(starts, np.int64), np.add(starts, counts),
                np.array(lows, dtype), np.array(highs, dtype))
        return idx


def _extremes(values):
    """The least and the greatest of non-empty ``values``: of a coded
    column, its least and greatest code's entries (the dictionary is
    sorted); of a string image, as its bytes order them."""
    if isinstance(values, DictColumn):
        dictionary, codes = values.dictionary, values.codes
        return dictionary[codes.min()], dictionary[codes.max()]
    if isinstance(values, StringImage):
        return values.extremes()
    return values.min(), values.max()


def may_qualify(lo, hi, op: str, literal):
    """Can a value in [lo, hi] satisfy ``value op literal``? Elementwise
    over arrays of extremes, or for one pair of scalars. (``in``: does
    the sorted ``literal`` hold a value in [lo, hi]?)"""
    if op == "=":
        return (lo <= literal) & (literal <= hi)
    if op == "in":
        return (np.searchsorted(literal, hi, side="right")
                > np.searchsorted(literal, lo))
    # the low end is the best witness for < and <=, the high end for > and >=
    return OPS[op](lo if op[0] == "<" else hi, literal)


def _runs(starts, ends, may) -> List[Tuple[int, int]]:
    """The ranges whose ``may`` holds as sorted [start, end) runs,
    adjacent ones merged."""
    runs: List[Tuple[int, int]] = []
    for start, end, kept in zip(starts, ends, may):
        if kept and runs and runs[-1][1] == start:
            runs[-1] = (runs[-1][0], end)
        elif kept:
            runs.append((start, end))
    return runs


def _intersect(a, b) -> List[Tuple[int, int]]:
    """The rows two lists of sorted, disjoint, non-adjacent runs share,
    as such a list: one pass over both."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        start, end = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out
