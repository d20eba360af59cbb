"""Vectorized physical operators (Volcano with vectors, paper section 5).

Operators pull batches from their children via python generators; every
batch is a set of numpy column slices, so the per-tuple work happens in
numpy kernels. Each operator fills a :class:`ProfileNode` so executed plans
can be rendered like the paper's appendix profile.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import ExecutionError
from repro.engine.batch import (
    Batch,
    DictColumn,
    EntryMemo,
    as_column,
    batch_bytes,
    batches_from_columns,
    concat_batches,
    concat_columns,
    dense_ranks,
    full_vectors,
    order_key,
    recode,
)
from repro.engine.expressions import Expr
from repro.engine.profile import Frame, ProfileNode, kernel

DEFAULT_VECTOR_SIZE = 1024

#: sentinel distinguishing exhaustion from yielded items in execute()
_DONE = object()


class Operator:
    """Base class: children, profiling, and a batch-stream ``execute``."""

    label = "Op"

    #: optional (meter, node) set by a distributed executor; pipeline
    #: breakers report their materialized state through it so per-node
    #: peak memory covers operator state, not just exchange buffers.
    memory_meter = None
    memory_node: Optional[str] = None

    #: rows per vector this operator slices its output into and re-forms
    #: short batches up to; a distributed executor stamps the cluster's.
    #: A streamed scan's vectors are its pieces, which may be longer
    vector_size = DEFAULT_VECTOR_SIZE

    #: seconds this operator's stream spent inside its last ``execute``
    stream_seconds: Optional[float] = None

    def __init__(self, children: Sequence["Operator"] = ()):
        self.children: List[Operator] = list(children)
        #: a distributed executor hands the operators one plan node became
        #: on its streams the *same* node; otherwise made at first execute
        self.profile: Optional[ProfileNode] = None

    def _charge_state(self, n_bytes: int) -> None:
        """Report materialized operator state (hash build, sort buffer)."""
        if self.memory_meter is not None and n_bytes > 0:
            self.memory_meter.hold(self.memory_node, n_bytes)

    # subclasses implement _run(); execute() adds profiling around it.
    def _run(self) -> Iterator[Batch]:
        raise NotImplementedError

    def _own_profile(self) -> ProfileNode:
        """Run outside an executor, nobody handed this tree's operators
        their nodes: make them, wired like the operators."""
        if self.profile is None:
            self.profile = ProfileNode(
                self.describe(), kind=self.label,
                children=[c._own_profile() for c in self.children])
        return self.profile

    def execute(self) -> Iterator[Batch]:
        prof = self.profile or self._own_profile()
        pulls = Frame(prof)
        iterator = self._run()
        try:
            while True:
                # the frame is on the stack exactly while _run's code
                # executes (not while suspended at a yield): nested child
                # pulls and kernels enter their own frames and take their
                # seconds out of this one's, and storage/compression
                # kernels land on the operator that called them
                with pulls:
                    batch = next(iterator, _DONE)
                if batch is _DONE:
                    break
                prof.tuples_out += batch.n
                prof.batches += 1
                yield batch
        finally:
            # also runs on cancel (generator close): totals stay honest.
            # Rows, batches and kernels went into the node as they
            # happened; this stream's seconds join the other streams' here
            iterator.close()
            self.stream_seconds = pulls.seconds
            prof.stream_times.append(pulls.seconds)
            prof.cum_time = max(prof.cum_time, pulls.seconds)

    def run_to_batch(self) -> Batch:
        return concat_batches(self.execute())

    def describe(self) -> str:
        return self.label


class VectorSource(Operator):
    """Leaf: emits pre-materialized columns as vectors (scan output)."""

    label = "Scan"

    def __init__(self, columns: Dict[str, np.ndarray],
                 vector_size: int = DEFAULT_VECTOR_SIZE,
                 label: str = "Scan"):
        super().__init__(())
        self.columns = columns
        self.vector_size = vector_size
        self.label = label

    def _run(self):
        yield from batches_from_columns(self.columns, self.vector_size)


class Select(Operator):
    """Filter by a boolean expression."""

    label = "Select"

    def __init__(self, child: Operator, predicate: Expr):
        super().__init__([child])
        self.predicate = predicate

    def describe(self):
        return f"Select[{self.predicate!r}]"

    def _run(self):
        return full_vectors(self._qualifying(), self.vector_size)

    def _qualifying(self):
        for batch in self.children[0].execute():
            with kernel("select.predicate", rows=batch.n):
                mask = np.asarray(self.predicate.eval(batch.columns),
                                  dtype=bool)
            yield batch if mask.all() else batch.select(mask)


class Project(Operator):
    """Compute output columns from expressions."""

    label = "Project"

    def __init__(self, child: Operator, outputs: Dict[str, Expr]):
        super().__init__([child])
        self.outputs = outputs

    def describe(self):
        return f"Project[{', '.join(self.outputs)}]"

    def _run(self):
        for batch in self.children[0].execute():
            cols = {}
            with kernel("project.eval", rows=batch.n):
                for name, expr in self.outputs.items():
                    value = expr.eval(batch.columns)
                    if np.isscalar(value) or (isinstance(value, np.ndarray)
                                              and value.ndim == 0):
                        value = np.full(batch.n, value)
                    cols[name] = value
            yield Batch(cols, batch.n)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

#: (output name, function, input expression or None for count(*))
AggSpec = Tuple[str, str, Optional[Expr]]

#: ``sum_counts`` adds up partial counts -- the final phase of a split
#: ``count`` -- as the integers they are
_AGG_FUNCS = ("sum", "count", "avg", "min", "max", "count_distinct",
              "sum_counts")


class _Partial(NamedTuple):
    """Folded aggregation state: one row per distinct key."""

    keys: List[np.ndarray]
    #: one tuple of arrays per aggregate, aligned with ``keys`` -- except
    #: count_distinct, which holds its distinct (row of ``keys``, value)
    #: pairs
    states: List[Tuple[np.ndarray, ...]]
    n: int


#: partial rows, in vectors, a HashAggr holds before it merges mid-stream.
#: A constant, not a knob: it only bounds the folded state kept beside
#: the groups themselves, and no answer depends on it.
MERGE_AFTER_VECTORS = 64


#: the most groups a HashAggr keeps in fixed arrays indexed by key codes.
#: A constant, not a knob: it bounds the arrays a direct aggregation
#: allocates and adds a zero into per vector (512 KB each), and no answer
#: depends on it
DIRECT_SLOTS = 1 << 16

#: the aggregates a direct aggregation adds up; any other takes the
#: rank -> fold -> merge path
_DIRECT_FUNCS = frozenset(("sum", "count", "avg", "sum_counts"))


class HashAggr(Operator):
    """Group-by that adds into arrays indexed by key codes where it can,
    and folds and merges instead of keeping a hash table where it cannot.

    *Direct* (X100's direct aggregation): while every key of every vector
    is a coded column over the dictionaries of the stream's first vector,
    their entry counts multiply to at most :data:`DIRECT_SLOTS` and every
    aggregate is sum / count / avg / sum_counts, a group is the slot
    ``sum(code_i * stride_i)`` of fixed arrays, and each aggregate of a
    vector is one ``np.bincount`` over the slots added into its array
    (:class:`_Slots`). The first vector that breaks the rule turns what
    the arrays hold into one partial and the rest of the stream goes on
    the general path.

    *General*: every input vector is *ranked* (each key column to dense
    ranks -- ``np.unique`` for numbers, a coded string column's codes as
    they are less the ones absent, a dict over the distinct values for
    plain strings -- combined pairwise and re-ranked so codes stay below
    n^2) and *folded* to one partial row per distinct key of that vector
    (``np.bincount`` for sum/count/avg, ``ufunc.reduceat`` for min/max,
    the distinct (group, value) pairs for count_distinct). Held partials
    are *merged* by the same rank-and-fold applied to their concatenation,
    once at end of input and whenever more than
    :data:`MERGE_AFTER_VECTORS` vectors' worth of partial rows (and more
    than the last merge left) have piled up; no Python runs per row or
    per key.

    On both paths groups leave in the order their keys first arrived
    (vector by vector, sorted within a vector) and key columns keep their
    dtype. A sum is its vectors' partial sums added in arrival order from
    0.0 (a vector without the group adds 0.0), so it does not depend on
    the path or on where merges fall. Feeding a HashAggr's (keys, sum,
    count) output to a second one is the paper's partial-aggregation
    rewrite.
    """

    label = "Aggr"

    def __init__(self, child: Operator, group_by: Sequence[str],
                 aggregates: Sequence[AggSpec]):
        super().__init__([child])
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        for _, func, _ in self.aggregates:
            if func not in _AGG_FUNCS:
                raise ExecutionError(f"unknown aggregate {func}")

    def describe(self):
        return f"Aggr[{','.join(self.group_by)}]" if self.group_by else "Aggr(total)"

    def _run(self):
        funcs = [func for _, func, _ in self.aggregates]
        slots = None  # the direct path's state, while it holds
        held: List[_Partial] = []
        fresh = 0  # partial rows held since the last merge
        for batch in self.children[0].execute():
            keys = [batch.columns[k] for k in self.group_by]
            if slots is None and not held:  # the stream's first vector
                slots = _Slots.fitting(funcs, keys)
            elif slots is not None and not slots.fits(keys):
                held, slots = [slots.partial()], None
            if slots is not None:
                with kernel("aggr.accumulate", rows=batch.n):
                    slots.add(keys, batch.n, [
                        None if expr is None else expr.eval(batch.columns)
                        for _, _, expr in self.aggregates])
                continue
            with kernel("aggr.group", rows=batch.n):
                codes, first = _rank(keys, batch.n)
            with kernel("aggr.accumulate", rows=batch.n):
                rows = [_row_state(func, batch.n, None if expr is None
                                   else expr.eval(batch.columns))
                        for _, func, expr in self.aggregates]
                held.append(_fold(funcs, keys, rows, codes, first))
            fresh += len(first)
            # held[0] is what the last merge left: waiting until as many
            # rows again are held keeps the merging linear in the input
            if fresh > max(MERGE_AFTER_VECTORS * self.vector_size, held[0].n):
                held, fresh = [_merge(funcs, held)], 0
        if slots is not None:
            held = [slots.partial()]
        if len(held) > 1:
            held = [_merge(funcs, held)]
        if not held:
            # a child that hands on not even a schema batch: fold zero
            # rows so every key and aggregate column is still named
            none = np.empty(0)
            held = [_fold(funcs, [none] * len(self.group_by),
                          [_row_state(func, 0, none) for func in funcs],
                          *_rank((), 0))]

        groups = held[0]
        with kernel("aggr.finalize", rows=groups.n):
            if groups.n == 0 and not self.group_by:
                # SQL total aggregates return one row even on empty input.
                out = {name: np.zeros(1, np.float64 if func in ("sum", "avg")
                                      else np.int64)
                       for name, func, _ in self.aggregates}
            else:
                out = dict(zip(self.group_by, groups.keys))
                for (name, func, _), state in zip(self.aggregates,
                                                  groups.states):
                    out[name] = _finalize(func, state, groups.n)
        yield from batches_from_columns(out, self.vector_size)


class _Slots:
    """Direct aggregation state: per aggregate, fixed arrays indexed by a
    group's slot ``sum(code_i * stride_i)`` over the key dictionaries the
    stream started with (the first key varies slowest, so slot order is
    key order), plus the rows each slot has seen and the slots in the
    order they first arrived."""

    def __init__(self, funcs: Sequence[str], dictionaries: List[np.ndarray],
                 strides: List[int], size: int):
        self.funcs = funcs
        self.dictionaries = dictionaries
        self.strides = strides
        self.size = size
        self.rows = np.zeros(size, dtype=np.int64)
        #: per aggregate, what it adds up (count reads ``rows``)
        self.totals = [None if func == "count" else np.zeros(
            size, np.int64 if func == "sum_counts" else np.float64)
            for func in funcs]
        self.arrived: List[np.ndarray] = []

    @classmethod
    def fitting(cls, funcs: Sequence[str],
                keys: Sequence[np.ndarray]) -> Optional["_Slots"]:
        """The state for a stream whose first vector has ``keys``, or
        None if the direct path does not apply to it."""
        if not _DIRECT_FUNCS.issuperset(funcs) or not all(
                isinstance(key, DictColumn) for key in keys):
            return None
        strides, size = [], 1
        for key in reversed(keys):  # the first key varies slowest
            strides.insert(0, size)
            size *= len(key.dictionary)
        if size > DIRECT_SLOTS:
            return None
        return cls(funcs, [key.dictionary for key in keys], strides, size)

    def fits(self, keys: Sequence[np.ndarray]) -> bool:
        return all(isinstance(key, DictColumn) and key.dictionary is mine
                   for key, mine in zip(keys, self.dictionaries))

    def add(self, keys: Sequence[DictColumn], n: int,
            values: Sequence) -> None:
        """One vector of ``n`` rows: its key columns and each aggregate's
        input (None for count(*))."""
        slot = np.zeros(n, dtype=np.intp)
        for key, stride in zip(keys, self.strides):
            slot += key.codes * stride
        rows = np.bincount(slot, minlength=self.size)
        first = np.flatnonzero((self.rows == 0) & (rows > 0))
        if len(first):
            self.arrived.append(first)
        self.rows += rows
        for func, total, value in zip(self.funcs, self.totals, values):
            if total is not None:  # as the general path folds a vector
                weights = _row_state(func, n, value)[0]
                total += np.bincount(slot, weights, minlength=self.size
                                     ).astype(total.dtype, copy=False)

    def partial(self) -> _Partial:
        """What the arrays hold as one partial, its groups in arrival
        order."""
        order = (np.concatenate(self.arrived) if self.arrived
                 else np.empty(0, dtype=np.intp))
        keys = [DictColumn((order // stride % len(dictionary)
                            ).astype(np.int32), dictionary)
                for dictionary, stride in zip(self.dictionaries,
                                              self.strides)]
        rows = self.rows[order]
        states = [(rows,) if func == "count" else
                  (total[order], rows) if func == "avg" else (total[order],)
                  for func, total in zip(self.funcs, self.totals)]
        return _Partial(keys, states, len(order))


def _ranks(col: np.ndarray):
    """Each value's dense rank in sorted order, and the dictionary that
    ranks them: the sorted distinct values (numbers; for a coded string
    column, themselves a coded column) or value -> rank (plain strings).
    Its ``len`` is how many distinct values there are."""
    if isinstance(col, DictColumn):
        ranks, present = col.ranks()
        return ranks, DictColumn(present, col.dictionary)
    if col.dtype != object:
        uniq, ranks = np.unique(col, return_inverse=True)
        return ranks, uniq
    # strings: sort the distinct values only, map back at C speed
    values = col.tolist()
    rank_of = {v: i for i, v in enumerate(sorted(dict.fromkeys(values)))}
    return (np.fromiter(map(rank_of.__getitem__, values), np.intp,
                        len(values)), rank_of)


def _lookup(dictionary, col: np.ndarray,
            memo: Optional[EntryMemo] = None) -> np.ndarray:
    """``col``'s values as the ranks a :func:`_ranks` dictionary gave
    them; -1 for a value it never saw (NaN included). Strings of a coded
    ``col`` are looked up once per entry (``memo``: once per dictionary),
    not per row."""
    if isinstance(dictionary, DictColumn):
        # the probe's strings as codes of the build side's dictionary,
        # then those among the codes the build side has
        col = recode(col, dictionary.dictionary, memo)
        dictionary = dictionary.codes
    elif isinstance(col, DictColumn):
        return col.map_entries(partial(_lookup, dictionary), memo)
    if isinstance(dictionary, dict):
        return np.fromiter(map(dictionary.get, col.tolist(), repeat(-1)),
                           np.intp, len(col))
    at = np.minimum(np.searchsorted(dictionary, col), len(dictionary) - 1)
    return np.where(dictionary[at] == col, at, -1)


def _codes(keys: Sequence[np.ndarray]):
    """Rows' key columns as one dense code per row, numbered in sorted key
    order, and the dictionaries that made them: the first column's, then
    per further column its own and the pair's -- each column is ranked
    against its own distinct values, combined with the codes so far and
    re-ranked, so codes stay below n^2."""
    codes, dictionary = _ranks(keys[0])
    dictionaries = [dictionary]
    for col in keys[1:]:
        ranks, right = _ranks(col)
        codes, pair = dense_ranks(
            codes.astype(np.intp, copy=False) * len(right) + ranks,
            len(dictionaries[-1]) * len(right))
        dictionaries += [right, pair]
    return codes, dictionaries


def _rank(keys: Sequence[np.ndarray],
          n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``n`` rows by their key columns: every row's group code
    (groups numbered in sorted key order) and every group's first row."""
    if keys:
        codes, dictionaries = _codes(keys)
        n_groups = len(dictionaries[-1])
    else:
        codes, n_groups = np.zeros(n, dtype=np.intp), min(n, 1)
    first = np.empty(n_groups, dtype=np.intp)
    # repeated indices keep the last assignment: walk the rows backwards
    first[codes[::-1]] = np.arange(n - 1, -1, -1)
    return codes, first


def _row_state(func: str, n: int, values) -> Tuple:
    """``n`` input rows as the state :func:`_fold_state` folds (a row is
    a partial of itself; a ``None`` count stands for all ones)."""
    if func == "count":
        return (None,)
    if func == "sum_counts":
        return (np.asarray(values, np.int64),)
    if func == "sum":
        return (np.asarray(values, np.float64),)
    if func == "avg":
        return (np.asarray(values, np.float64), None)
    if func == "count_distinct":
        return (np.arange(n), as_column(values))
    return (as_column(values),)


def _fold_state(func: str, state: Tuple, codes: np.ndarray,
                n_groups: int) -> Tuple[np.ndarray, ...]:
    """One aggregate's state, row ``i`` belonging to group ``codes[i]``,
    reduced to one entry per group."""
    if func == "count_distinct":
        groups, values = codes[state[0]], state[1]
        _, first = _rank([groups, values], len(groups))
        return groups[first], values[first]
    if func in ("min", "max"):
        order = np.argsort(codes, kind="stable")
        starts = np.searchsorted(codes[order], np.arange(n_groups))
        ufunc = np.minimum if func == "min" else np.maximum
        values = state[0][order]
        if isinstance(values, DictColumn):  # the least code is the least
            return (DictColumn(ufunc.reduceat(values.codes, starts),
                               values.dictionary),)
        return (ufunc.reduceat(values, starts),)
    folded = []
    if func in ("sum", "avg"):
        folded.append(np.bincount(codes, weights=state[0],
                                  minlength=n_groups))
    if func in ("count", "avg", "sum_counts"):
        folded.append(np.bincount(codes, weights=state[-1],
                                  minlength=n_groups).astype(np.int64))
    return tuple(folded)


def _fold(funcs: Sequence[str], keys: Sequence[np.ndarray],
          states: Sequence[Tuple], codes: np.ndarray,
          first: np.ndarray) -> _Partial:
    n_groups = len(first)
    return _Partial([col[first] for col in keys],
                    [_fold_state(func, state, codes, n_groups)
                     for func, state in zip(funcs, states)], n_groups)


def _merge(funcs: Sequence[str], partials: Sequence[_Partial]) -> _Partial:
    """Fold the concatenation of ``partials`` (held in arrival order) into
    one, its groups in the order they first arrived."""
    n = sum(p.n for p in partials)
    with kernel("aggr.merge", rows=n):
        offsets = np.cumsum([0] + [p.n for p in partials[:-1]])
        keys = [concat_columns(cols)
                for cols in zip(*(p.keys for p in partials))]
        states = []
        for i, func in enumerate(funcs):
            parts = [p.states[i] for p in partials]
            if func == "count_distinct":
                parts = [(rows + offset, values)
                         for (rows, values), offset in zip(parts, offsets)]
            states.append(tuple(concat_columns(arrays)
                                for arrays in zip(*parts)))
        codes, first = _rank(keys, n)
        arrival = np.argsort(first)
        position = np.empty_like(arrival)
        position[arrival] = np.arange(len(arrival))
        return _fold(funcs, keys, states, position[codes], first[arrival])


def _finalize(func: str, state: Tuple[np.ndarray, ...],
              n_groups: int) -> np.ndarray:
    if func == "avg":
        return state[0] / state[1]
    if func == "count_distinct":
        return np.bincount(state[0], minlength=n_groups)
    return state[0]


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

#: widest key span (``max - min + 1``) a build answers by position, unless
#: it holds more than an eighth as many rows. A constant, not a knob: it
#: bounds one int32 table per build (1 MB, filled in ~20 us) and no answer
#: depends on it. At SF 0.02 a stream's ``orders`` build is 300-4,000 rows
#: spread over 120 k keys, so anything below 2**17 would send the
#: benchmark's largest join back to searching.
POSITION_SPAN = 1 << 18


class _KeyLookup:
    """What a finished build knows about its keys: for a probe key, the
    first build row that has it (-1: none) and how many do.

    Integer keys spanning at most :data:`POSITION_SPAN` values (or eight
    per build row) are found *by position* in tables indexed ``key - min``
    -- no sort of the build, no search per probe vector. Anything else is
    found with one ``searchsorted`` in the sorted *distinct* keys and an
    equality test. Either way a key lands in a slot of ``first`` /
    ``count``, whose extra last slot is where keys the build never had go.
    A build without a repeated key (``unique``: every primary-key side)
    keeps no counts, and its ``first`` is the build row itself; otherwise
    ``first`` counts into ``order``, the build rows grouped by key (None:
    they arrived grouped).
    """

    __slots__ = ("lo", "hi", "distinct", "first", "count", "order")

    def __init__(self, keys: np.ndarray):
        n = len(keys)
        self.distinct = self.count = self.order = None
        # by position over nothing: every key misses (int64 scalars, so a
        # narrower probe column widens instead of overflowing)
        self.lo, self.hi = np.int64(0), np.int64(-1)
        by_position = n == 0
        if n and keys.dtype.kind == "i":
            lo, hi = int(keys.min()), int(keys.max())
            if hi - lo < max(POSITION_SPAN, 8 * n):
                by_position, self.lo, self.hi = True, np.int64(lo), np.int64(hi)
        index = np.int32 if n < 2 ** 31 else np.intp
        rows = np.arange(n, dtype=index)
        if by_position:
            n_slots = int(self.hi - self.lo) + 1
            slots = (keys - self.lo).astype(np.intp, copy=False)
            self.first = np.full(n_slots + 1, -1, dtype=index)
            self.first[slots] = rows
            if (self.first[slots] == rows).all():
                return  # no row lost its slot to another: unique
        # repeated keys, or keys to search: group the rows by key (NaN
        # never compares, so a column holding one is sorted too)
        if n > 1 and not (keys[1:] >= keys[:-1]).all():
            self.order = np.argsort(keys, kind="stable")
            keys = keys[self.order]
        starts = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1]))).astype(index)
        if by_position:
            slots = (keys[starts] - self.lo).astype(np.intp, copy=False)
        else:
            self.distinct = keys[starts]
            slots = slice(len(starts))
            self.first = np.full(len(starts) + 1, -1, dtype=index)
            if len(starts) == n:  # unique: ``first`` is the build row
                self.first[slots] = rows if self.order is None else self.order
                self.order = None
                return
        self.first[slots] = starts
        self.count = np.zeros(len(self.first), dtype=index)
        self.count[slots] = np.diff(starts, append=index(n))

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.distinct, self.first, self.count,
                                      self.order) if a is not None)

    def describe(self) -> str:
        return (("position" if self.distinct is None else "sorted")
                + ("+unique" if self.count is None else ""))

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        nowhere = len(self.first) - 1
        if self.distinct is not None:
            at = np.minimum(np.searchsorted(self.distinct, keys), nowhere - 1)
            return np.where(self.distinct[at] == keys, at, nowhere)
        inside = (keys >= self.lo) & (keys <= self.hi)
        if keys.dtype.kind != "i":
            # 2.5 and NaN are keys no integer build has
            whole = np.where(inside, keys, self.lo).astype(np.int64)
            inside &= whole == keys
            keys = whole
        if inside.all():
            return keys - self.lo
        return np.where(inside, keys - self.lo, nowhere)

    def find(self, keys: np.ndarray):
        """Per probe key ``(first, count)``; ``count`` is None when the
        build is unique (``first >= 0`` says it all)."""
        slots = self._slots(keys)
        return (self.first.take(slots),
                None if self.count is None else self.count.take(slots))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self.first.take(self._slots(keys)) >= 0


class HashJoin(Operator):
    """Hash join: build side materialized, probe side streamed.

    Join types: ``inner``, ``left`` (probe side preserved; adds a boolean
    ``__matched`` column and fills build columns with type defaults),
    ``semi`` and ``anti`` (probe rows with / without a match).
    The build keys become one :class:`_KeyLookup` and every probe vector
    is matched through it; what the build proved about itself -- dense,
    unique -- decides what a probe costs, no plan flag does. A single
    number column is looked up as it is; composite and string keys are
    first ranked to one integer code per row, the probe side through the
    build side's dictionaries (a coded probe column once per dictionary
    it arrives with, not per row).
    """

    label = "HashJoin"
    build_kernel, probe_kernel = "join.build", "join.probe"
    #: a build column replaces the probe column of the same name
    payload_overwrites = True

    def __init__(self, build: Operator, probe: Operator,
                 build_keys: Sequence[str], probe_keys: Sequence[str],
                 join_type: str = "inner",
                 build_payload: Optional[Sequence[str]] = None):
        super().__init__([build, probe])
        if join_type not in ("inner", "left", "semi", "anti"):
            raise ExecutionError(f"unknown join type {join_type}")
        self.build_side, self.probe_side = build, probe
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type
        self.build_payload = build_payload
        #: set by an executor whose plan lets the probe-side scan of this
        #: stream skip rows without a partner: the finished build puts
        #: its membership test (key columns in, bool per row out) here
        self.key_slot: Optional[list] = None

    def describe(self):
        return (f"HashJoin({self.join_type})"
                f"[{','.join(self.probe_keys)}={','.join(self.build_keys)}]")

    def _run(self):
        return full_vectors(self._joined(), self.vector_size)

    def _joined(self):
        build = self.build_side.run_to_batch()
        payload = (list(self.build_payload) if self.build_payload is not None
                   else build.column_names)
        with kernel(self.build_kernel, rows=build.n):
            bkey, encode = self._key_codes(build)
            lookup = _KeyLookup(bkey)
        self._charge_state(batch_bytes(build) + lookup.nbytes)
        self.profile.lookups.add(lookup.describe())
        if self.key_slot is not None:
            self.key_slot.append(lambda cols: lookup.contains(encode(cols)))
        for batch in self.probe_side.execute():
            # probe work happens inside the kernel; the yields stay
            # outside so the frame never spans a generator suspension
            with kernel(self.probe_kernel, rows=batch.n):
                first, count = lookup.find(
                    encode([batch.columns[k] for k in self.probe_keys]))
                out_batches = self._emit(batch, build, payload, first, count,
                                         lookup.order)
            yield from out_batches

    def _key_codes(self, build: Batch):
        """The build rows' join keys as one array, and the function that
        takes a probe vector's key columns into the same domain.
        Composite and string keys become the codes that group rows
        (:func:`_codes`); a probe value the build side never had becomes
        -1 and matches nothing."""
        if build.n == 0:
            return (np.empty(0, dtype=np.int64),
                    lambda pcols: np.full(len(pcols[0]), -1))
        cols = [build.columns[k] for k in self.build_keys]
        if len(cols) == 1 and cols[0].dtype != object:
            return cols[0], lambda pcols: pcols[0]
        codes, dictionaries = _codes(cols)
        memos = [EntryMemo() for _ in cols]

        def encode(pcols: Sequence[np.ndarray]) -> np.ndarray:
            out = _lookup(dictionaries[0], pcols[0], memos[0])
            for col, right, pair, memo in zip(pcols[1:], dictionaries[1::2],
                                              dictionaries[2::2], memos[1:]):
                ranks = _lookup(right, col, memo)
                out = np.where((out >= 0) & (ranks >= 0),
                               _lookup(pair, out * len(right) + ranks), -1)
            return out

        return codes, encode

    def _emit(self, batch: Batch, build: Batch, payload: Sequence[str],
              first: np.ndarray, count: Optional[np.ndarray],
              order: Optional[np.ndarray]) -> List[Batch]:
        hit = first >= 0
        all_hit = bool(hit.all())
        if self.join_type == "semi":
            return [batch if all_hit else batch.select(hit)]
        if self.join_type == "anti":
            return [batch.select(~hit)]
        if count is None and all_hit:
            # one partner each: the probe columns go on as they are
            out, rows = dict(batch.columns), first
        else:
            if count is None:
                at = np.flatnonzero(hit)
                rows = first.take(at)
            else:  # a probe row repeats once per partner, in build order
                at = np.repeat(np.arange(batch.n), count)
                before = np.cumsum(count) - count
                rows = (np.arange(len(at)) - before.take(at)) + first.take(at)
            out = {k: v[at] for k, v in batch.columns.items()}
        if order is not None:
            rows = order.take(rows)
        for name in payload:
            if self.payload_overwrites or name not in out:
                out[name] = build.columns[name][rows]
        if self.join_type != "left":
            return [Batch(out, len(rows))]
        out["__matched"] = np.ones(len(rows), bool)
        if all_hit:
            return [Batch(out, len(rows))]
        miss = batch.select(~hit)
        for name in payload:
            miss.columns[name] = _fill_like(build.columns[name], miss.n)
        miss.columns["__matched"] = np.zeros(miss.n, bool)
        return [Batch(out, len(rows)), miss]


def _fill_like(column: np.ndarray, n: int) -> np.ndarray:
    if isinstance(column, DictColumn):
        return DictColumn(np.zeros(n, dtype=np.int32),
                          np.array([""], dtype=object))
    if column.dtype == object:
        return np.full(n, "", dtype=object)
    return np.zeros(n, dtype=column.dtype)


class MergeJoin(HashJoin):
    """Inner join of co-ordered inputs (clustered-on-FK tables, section 2).

    The right input is the build: it arrives grouped on the join key, so
    its :class:`_KeyLookup` needs no sort, and the left input streams
    through it vector by vector. Columns both sides have keep the left
    side's values.
    """

    label = "MergeJoin"
    build_kernel = probe_kernel = "join.merge"
    payload_overwrites = False

    def __init__(self, left: Operator, right: Operator,
                 left_key: str, right_key: str):
        super().__init__(right, left, [right_key], [left_key])
        self.children = [left, right]  # the plan's order

    def describe(self):
        return f"MergeJoin[{self.probe_keys[0]}={self.build_keys[0]}]"


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------

def stable_order(columns: Dict[str, np.ndarray], keys: Sequence[str],
                 ascending: Sequence[bool]) -> np.ndarray:
    """Stable multi-key argsort with per-key direction."""
    n = len(next(iter(columns.values())))
    order = np.arange(n)
    for key, asc in list(zip(keys, ascending))[::-1]:
        col = order_key(columns[key])[order]
        if col.dtype == object:
            col = _ranks(col)[0]
        if not asc:
            # ~x = -x - 1 reverses integers (ranks, codes and bools too)
            # without leaving their domain; floats have no ~
            col = -col if col.dtype.kind == "f" else ~col
        order = order[np.argsort(col, kind="stable")]
    return order


class Sort(Operator):
    """Full sort (materializing)."""

    label = "Sort"

    def __init__(self, child: Operator, keys: Sequence[str],
                 ascending: Optional[Sequence[bool]] = None):
        super().__init__([child])
        self.keys = list(keys)
        self.ascending = list(ascending) if ascending else [True] * len(keys)

    def describe(self):
        return f"Sort[{','.join(self.keys)}]"

    def _run(self):
        data = self.children[0].run_to_batch()
        self._charge_state(batch_bytes(data))
        if data.n == 0:
            yield data
            return
        with kernel("sort.order", rows=data.n):
            order = stable_order(data.columns, self.keys, self.ascending)
            ordered = {k: v[order] for k, v in data.columns.items()}
        yield from batches_from_columns(ordered, self.vector_size)


class TopN(Operator):
    """ORDER BY ... LIMIT n; usable as partial TopN below an exchange."""

    label = "TopN"

    def __init__(self, child: Operator, keys: Sequence[str], n: int,
                 ascending: Optional[Sequence[bool]] = None):
        super().__init__([child])
        self.keys = list(keys)
        self.n = n
        self.ascending = list(ascending) if ascending else [True] * len(keys)

    def describe(self):
        return f"TopN[{','.join(self.keys)}; {self.n}]"

    def _run(self):
        data = self.children[0].run_to_batch()
        self._charge_state(batch_bytes(data))
        if data.n == 0:
            yield data
            return
        with kernel("topn.order", rows=data.n):
            order = stable_order(
                data.columns, self.keys, self.ascending)[: self.n]
            out = {k: v[order] for k, v in data.columns.items()}
        yield Batch(out, len(order))


class UnionAll(Operator):
    """Concatenate child streams."""

    label = "UnionAll"

    def _run(self):
        for child in self.children:
            yield from child.execute()


class Limit(Operator):
    """FIRST n without ordering."""

    label = "Limit"

    def __init__(self, child: Operator, n: int):
        super().__init__([child])
        self.n = n

    def _run(self):
        remaining = self.n
        for batch in self.children[0].execute():
            if remaining <= 0:
                break
            if batch.n <= remaining:
                remaining -= batch.n
                yield batch
            else:
                index = np.arange(remaining)
                remaining = 0
                yield batch.take(index)
