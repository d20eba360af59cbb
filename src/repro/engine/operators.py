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
    #: short batches up to; a distributed executor stamps the cluster's
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


class HashAggr(Operator):
    """Group-by that folds and merges instead of keeping a hash table.

    Every input vector is *ranked* (each key column to dense ranks --
    ``np.unique`` for numbers, a coded string column's codes as they are
    less the ones absent, a dict over the distinct values for plain
    strings -- combined pairwise and re-ranked so codes stay below n^2)
    and *folded* to one partial row per distinct key of that vector
    (``np.bincount`` for sum/count/avg, ``ufunc.reduceat`` for min/max,
    the distinct (group, value) pairs for count_distinct). Held partials
    are *merged* by the same rank-and-fold applied to their concatenation,
    once at end of input and whenever more than
    :data:`MERGE_AFTER_VECTORS` vectors' worth of partial rows (and more
    than the last merge left) have piled up; no Python runs per row or
    per key.

    Groups leave in the order their keys first arrived (vector by vector,
    sorted within a vector) and key columns keep their dtype. A sum is its
    vectors' partial sums added in arrival order from 0.0, so it does not
    depend on where merges fall. Feeding a HashAggr's (keys, sum, count)
    output to a second one is the paper's partial-aggregation rewrite.
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
        held: List[_Partial] = []
        fresh = 0  # partial rows held since the last merge
        for batch in self.children[0].execute():
            keys = [batch.columns[k] for k in self.group_by]
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

class HashJoin(Operator):
    """Hash join: build side materialized, probe side streamed.

    Join types: ``inner``, ``left`` (probe side preserved; adds a boolean
    ``__matched`` column and fills build columns with type defaults),
    ``semi`` and ``anti`` (probe rows with / without a match).
    The build keys are sorted once and every probe vector is matched with
    ``searchsorted``. A single number column is compared as it is;
    composite and string keys are first ranked to one integer code per
    row, the probe side through the build side's dictionaries (a coded
    probe column once per dictionary it arrives with, not per row).
    """

    label = "HashJoin"

    def __init__(self, build: Operator, probe: Operator,
                 build_keys: Sequence[str], probe_keys: Sequence[str],
                 join_type: str = "inner",
                 build_payload: Optional[Sequence[str]] = None):
        super().__init__([build, probe])
        if join_type not in ("inner", "left", "semi", "anti"):
            raise ExecutionError(f"unknown join type {join_type}")
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type
        self.build_payload = build_payload

    def describe(self):
        return (f"HashJoin({self.join_type})"
                f"[{','.join(self.probe_keys)}={','.join(self.build_keys)}]")

    def _run(self):
        return full_vectors(self._joined(), self.vector_size)

    def _joined(self):
        build = self.children[0].run_to_batch()
        self._charge_state(batch_bytes(build))
        payload = (list(self.build_payload) if self.build_payload is not None
                   else build.column_names)
        with kernel("join.build", rows=build.n):
            bkey, encode = self._key_codes(build)
            order = np.argsort(bkey, kind="stable")
            sorted_keys = bkey[order]
        for batch in self.children[1].execute():
            # probe work happens inside the kernel; the yields stay
            # outside so the frame never spans a generator suspension
            with kernel("join.probe", rows=batch.n):
                out_batches = self._probe(batch, build, payload,
                                          encode(batch), sorted_keys, order)
            yield from out_batches

    def _key_codes(self, build: Batch):
        """The build rows' join keys as one sortable array, and the
        function that takes a probe vector's keys into the same domain.
        Composite and string keys become the codes that group rows
        (:func:`_codes`); a probe value the build side never had becomes
        -1 and matches nothing."""
        if build.n == 0:
            return (np.empty(0, dtype=np.int64),
                    lambda batch: np.full(batch.n, -1))
        cols = [build.columns[k] for k in self.build_keys]
        if len(cols) == 1 and cols[0].dtype != object:
            pk_name = self.probe_keys[0]
            return cols[0], lambda batch: batch.columns[pk_name]
        codes, dictionaries = _codes(cols)
        memos = [EntryMemo() for _ in cols]

        def encode(batch: Batch) -> np.ndarray:
            pcols = [batch.columns[k] for k in self.probe_keys]
            out = _lookup(dictionaries[0], pcols[0], memos[0])
            for col, right, pair, memo in zip(pcols[1:], dictionaries[1::2],
                                              dictionaries[2::2], memos[1:]):
                ranks = _lookup(right, col, memo)
                out = np.where((out >= 0) & (ranks >= 0),
                               _lookup(pair, out * len(right) + ranks), -1)
            return out

        return codes, encode

    def _probe(self, batch: Batch, build: Batch, payload: Sequence[str],
               pkey: np.ndarray, sorted_keys: np.ndarray,
               order: np.ndarray) -> List[Batch]:
        starts = np.searchsorted(sorted_keys, pkey, side="left")
        ends = np.searchsorted(sorted_keys, pkey, side="right")
        counts = ends - starts
        if self.join_type == "semi":
            return [batch.select(counts > 0)]
        if self.join_type == "anti":
            return [batch.select(counts == 0)]
        total = int(counts.sum())
        probe_idx = np.repeat(np.arange(batch.n), counts)
        base = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total) - base
        build_rows = order[np.repeat(starts, counts) + within]
        out = {k: v[probe_idx] for k, v in batch.columns.items()}
        for name in payload:
            out[name] = build.columns[name][build_rows]
        if self.join_type == "left":
            unmatched = counts == 0
            if unmatched.any():
                miss = {k: v[unmatched] for k, v in batch.columns.items()}
                for name in payload:
                    miss[name] = _fill_like(build.columns[name],
                                            int(unmatched.sum()))
                miss["__matched"] = np.zeros(int(unmatched.sum()), bool)
                out["__matched"] = np.ones(total, bool)
                return [Batch(out, total), Batch(miss, int(unmatched.sum()))]
            out["__matched"] = np.ones(total, bool)
        return [Batch(out, total)]


def _fill_like(column: np.ndarray, n: int) -> np.ndarray:
    if isinstance(column, DictColumn):
        return DictColumn(np.zeros(n, dtype=np.int32),
                          np.array([""], dtype=object))
    if column.dtype == object:
        return np.full(n, "", dtype=object)
    return np.zeros(n, dtype=column.dtype)


class MergeJoin(Operator):
    """Join of co-ordered inputs (clustered-on-FK tables, section 2).

    Both inputs must arrive sorted on the join key. The merge is
    implemented with vectorized galloping (searchsorted), exploiting the
    order instead of building a hash table.
    """

    label = "MergeJoin"

    def __init__(self, left: Operator, right: Operator,
                 left_key: str, right_key: str):
        super().__init__([left, right])
        self.left_key = left_key
        self.right_key = right_key

    def describe(self):
        return f"MergeJoin[{self.left_key}={self.right_key}]"

    def _run(self):
        left = self.children[0].run_to_batch()
        right = self.children[1].run_to_batch()
        self._charge_state(batch_bytes(left) + batch_bytes(right))
        if left.n == 0 or right.n == 0:
            out = {k: v[:0] for k, v in left.columns.items()}
            for name, values in right.columns.items():
                if name not in out:
                    out[name] = values[:0]
            yield Batch(out, 0)
            return
        with kernel("join.merge", rows=left.n + right.n):
            lk = left.columns[self.left_key]
            rk = right.columns[self.right_key]
            starts = np.searchsorted(rk, lk, side="left")
            ends = np.searchsorted(rk, lk, side="right")
            counts = ends - starts
            total = int(counts.sum())
            left_idx = np.repeat(np.arange(left.n), counts)
            base = np.repeat(np.cumsum(counts) - counts, counts)
            right_idx = np.repeat(starts, counts) + (np.arange(total) - base)
            out = {k: v[left_idx] for k, v in left.columns.items()}
            for name, values in right.columns.items():
                if name not in out:
                    out[name] = values[right_idx]
        yield from batches_from_columns(out, self.vector_size)


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
