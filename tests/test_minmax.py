"""Tests for MinMax indexes: skipping, widening, soundness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.minmax import MinMaxIndex


def build_index(values, block=10):
    idx = MinMaxIndex()
    for start in range(0, len(values), block):
        idx.add_range("x", start, np.asarray(values[start:start + block]))
    return idx


class TestSkipping:
    def test_all_ranges_when_no_stats(self):
        idx = MinMaxIndex()
        assert idx.qualifying_ranges([("x", "<", 5)], 100) == [(0, 100)]

    def test_skips_non_qualifying_blocks(self):
        idx = build_index(list(range(100)))  # sorted 0..99, blocks of 10
        ranges = idx.qualifying_ranges([("x", "<", 25)], 100)
        assert ranges == [(0, 30)]

    def test_equality(self):
        idx = build_index(list(range(100)))
        assert idx.qualifying_ranges([("x", "=", 55)], 100) == [(50, 60)]

    def test_greater_than(self):
        idx = build_index(list(range(100)))
        assert idx.qualifying_ranges([("x", ">", 89)], 100) == [(90, 100)]
        assert idx.qualifying_ranges([("x", ">", 88)], 100) == [(80, 100)]

    def test_between(self):
        idx = build_index(list(range(100)))
        ranges = idx.qualifying_ranges([("x", ">=", 35), ("x", "<=", 44)],
                                       100)
        assert ranges == [(30, 50)]

    def test_conjunction(self):
        idx = build_index(list(range(100)))
        ranges = idx.qualifying_ranges([("x", ">=", 20), ("x", "<", 40)], 100)
        assert ranges == [(20, 40)]

    def test_adjacent_ranges_merged(self):
        idx = build_index(list(range(100)))
        ranges = idx.qualifying_ranges([("x", "<", 35)], 100)
        assert len(ranges) == 1

    def test_operator_outside_the_shared_vocabulary_is_an_error(self):
        # the index speaks exactly repro.storage.minmax.OPS; triples in
        # any other operator are dropped above it (StoredTable), not here
        idx = build_index(list(range(100)))
        with pytest.raises(KeyError):
            idx.qualifying_ranges([("x", "like", "a%")], 100)

    def test_empty_table(self):
        idx = MinMaxIndex()
        assert idx.qualifying_ranges([("x", "<", 5)], 0) == []

    def test_in_keeps_the_blocks_holding_one_of_the_values(self):
        # ``in`` takes the sorted storage values (ColumnType.storage_literal)
        idx = build_index(list(range(100)))
        assert idx.qualifying_ranges(
            [("x", "in", np.array([15, 17, 72]))], 100) == [(10, 20),
                                                           (70, 80)]
        assert idx.qualifying_ranges(
            [("x", "in", np.array([-3, 100]))], 100) == []
        assert idx.qualifying_ranges(
            [("x", "in", np.array([], dtype=np.int64))], 100) == []


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=200),
       st.lists(st.integers(-120, 120), max_size=6))
@settings(max_examples=80, deadline=None)
def test_in_skipping_is_sound(values, wanted):
    idx = build_index(values, block=7)
    ranges = idx.qualifying_ranges(
        [("x", "in", np.array(sorted(set(wanted)), dtype=np.int64))],
        len(values))
    covered = {i for s, e in ranges for i in range(s, e)}
    assert {i for i, v in enumerate(values) if v in wanted} <= covered


class TestWidening:
    def test_insert_widens_anchor_range(self):
        idx = build_index(list(range(100)))
        # without widening, value 999 in block 2 would be skipped
        idx.widen_batch("x", np.array([25]), np.array([999]))
        ranges = idx.qualifying_ranges([("x", ">", 500)], 100)
        assert any(s <= 25 < e for s, e in ranges)

    def test_tail_insert_widens_last_range(self):
        idx = build_index(list(range(100)))
        idx.widen_batch("x", np.array([100]), np.array([-50]))  # past the end
        ranges = idx.qualifying_ranges([("x", "<", 0)], 100)
        assert ranges and ranges[-1][1] == 100

    def test_widen_noop_within_bounds(self):
        idx = build_index(list(range(100)))
        before = idx.to_record()
        idx.widen_batch("x", np.array([5]), np.array([5]))  # inside [0, 9]
        assert idx.to_record() == before

    def test_widen_without_stats_is_noop(self):
        idx = MinMaxIndex()
        idx.widen_batch("x", np.array([0]), np.array([1]))  # must not crash
        assert "x" not in idx.ranges and idx.to_record() == {}


    def test_batch_spanning_two_ranges_widens_each_once(self):
        idx = build_index(list(range(100)))
        anchors = np.array([12, 15, 31, 38, 19])
        values = np.array([-7, 500, 33, 900, 14])
        idx.widen_batch("x", anchors, values)
        record = {start: (lo, hi)
                  for start, _, lo, hi in idx.to_record()["x"]}
        assert record[10] == (-7, 500)   # rows anchored in [10, 20)
        assert record[30] == (30, 900)   # rows anchored in [30, 40)
        assert record[20] == (20, 29) and record[0] == (0, 9)

    @given(st.lists(st.tuples(st.integers(0, 120), st.integers(-500, 500)),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_widening_value_by_value(self, inserts):
        one_by_one = build_index(list(range(100)))
        batched = build_index(list(range(100)))
        for anchor, value in inserts:  # anchors past 100: the tail
            one_by_one.widen_batch("x", np.array([anchor]), np.array([value]))
        anchors = np.array([a for a, _ in inserts], dtype=np.int64)
        values = np.array([v for _, v in inserts], dtype=np.int64)
        batched.widen_batch("x", anchors, values)
        assert batched.to_record() == one_by_one.to_record()

    def test_batch_of_strings(self):
        idx = MinMaxIndex()
        idx.add_range("s", 0, np.array(["d", "e"], dtype=object))
        idx.add_range("s", 2, np.array(["k", "m"], dtype=object))
        idx.widen_batch("s", np.array([1, 2, 9]),
                        np.array(["a", "z", "b"], dtype=object))
        assert idx.to_record()["s"] == [(0, 2, "a", "e"), (2, 2, "b", "z")]

    def test_a_value_the_range_dtype_cannot_hold_raises(self):
        idx = MinMaxIndex()
        idx.add_range("d", 0, np.array([5, 9], dtype=np.int32))
        for values in (np.array([2.5]), np.array([-2 ** 40])):
            with pytest.raises(TypeError):  # not truncated into int32
                idx.widen_batch("d", np.array([0]), values)
        assert idx.to_record() == {"d": [(0, 2, 5, 9)]}
        # a replayed record holds the column as int64, which int32 widens
        replayed = MinMaxIndex.from_record(idx.to_record())
        replayed.widen_batch("d", np.array([1]), np.array([1], np.int32))
        assert replayed.to_record() == {"d": [(0, 2, 1, 9)]}


class TestSerialization:
    def test_roundtrip(self):
        idx = build_index([3, 1, 4, 1, 5, 9, 2, 6], block=4)
        clone = MinMaxIndex.from_record(idx.to_record())
        assert clone.to_record() == idx.to_record()


def _may_hold(lo, hi, op, literal) -> bool:
    """Reference: can a value in [lo, hi] satisfy ``value op literal``?"""
    if op == "in":
        return any(lo <= value <= hi for value in literal)
    return {"<": lo < literal, "<=": lo <= literal, ">": hi > literal,
            ">=": hi >= literal, "=": lo <= literal <= hi}[op]


def _runs(rows):
    """Sorted row numbers as maximal [start, end) runs."""
    runs = []
    for row in rows:
        if runs and runs[-1][1] == row:
            runs[-1] = (runs[-1][0], row + 1)
        else:
            runs.append((row, row + 1))
    return runs


_INTS = st.integers(-30, 30)
_TEXTS = st.text("abcd", max_size=3)
#: x and y are int64 columns, s a string column; w has no stats
_VALUES = {"x": _INTS, "y": _INTS, "s": _TEXTS, "w": _INTS}


def _array(column, values):
    return np.array(values, dtype=object if column == "s" else np.int64)


@st.composite
def _predicate(draw):
    column = draw(st.sampled_from(sorted(_VALUES)))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "in"]))
    if op == "in":
        return column, op, _array(column, sorted(set(draw(
            st.lists(_VALUES[column], max_size=4)))))
    return column, op, draw(_VALUES[column])


@given(data=st.data(), n=st.integers(1, 50),
       widths=st.fixed_dictionaries({c: st.integers(1, 9) for c in "xys"}),
       predicates=st.lists(_predicate(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_skipping_matches_a_per_row_reference(data, n, widths, predicates):
    """A row is kept iff, for every predicate column with stats, the row
    lies in a range that may qualify: columns of different block widths,
    widen batches (anchors past the end widen the last range), a column
    without stats and ``n_rows`` below or past the stats."""
    idx = MinMaxIndex()
    model = {}  # column -> [start, count, lo, hi] per block, in row order
    for column, width in widths.items():
        values = data.draw(st.lists(_VALUES[column], min_size=n,
                                    max_size=n))
        model[column] = []
        for start in range(0, n, width):
            block = values[start:start + width]
            idx.add_range(column, start, _array(column, block))
            model[column].append([start, len(block), min(block),
                                  max(block)])
    batches = data.draw(st.lists(st.sampled_from("xys").flatmap(
        lambda c: st.tuples(st.just(c), st.lists(st.tuples(
            st.integers(0, n + 5), _VALUES[c]), min_size=1, max_size=5))),
        max_size=4))
    for column, rows in batches:
        idx.widen_batch(column, np.array([a for a, _ in rows], np.int64),
                        _array(column, [v for _, v in rows]))
        for anchor, value in rows:
            r = max((r for r in model[column] if r[0] <= anchor),
                    key=lambda r: r[0])
            r[2], r[3] = min(r[2], value), max(r[3], value)
    assert idx.to_record() == {c: [tuple(r) for r in rs]
                               for c, rs in model.items()}
    n_rows = data.draw(st.integers(0, n + 8))
    kept = [row for row in range(n_rows) if all(
        any(s <= row < s + c and _may_hold(lo, hi, op, literal)
            for s, c, lo, hi in model[column])
        for column, op, literal in predicates if column in model)]
    assert idx.qualifying_ranges(predicates, n_rows) == _runs(kept)


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
       st.integers(-1000, 1000),
       st.sampled_from(["<", "<=", ">", ">=", "="]))
@settings(max_examples=80, deadline=None)
def test_skipping_is_sound(values, literal, op):
    """No qualifying row may ever live in a skipped range."""
    import operator as _op
    ops = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge,
           "=": _op.eq}
    idx = build_index(values, block=7)
    ranges = idx.qualifying_ranges([("x", op, literal)], len(values))
    covered = set()
    for s, e in ranges:
        covered.update(range(s, e))
    for i, v in enumerate(values):
        if ops[op](v, literal):
            assert i in covered
