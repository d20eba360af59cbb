"""Vectorized physical operators (Volcano with vectors, paper section 5).

Operators pull batches from their children via python generators; every
batch is a set of numpy column slices, so the per-tuple work happens in
numpy kernels. Each operator owns a :class:`ProfileNode` so executed plans
can be rendered like the paper's appendix profile.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.engine.batch import (
    Batch,
    batch_bytes,
    batches_from_columns,
    concat_batches,
)
from repro.engine.expressions import Expr
from repro.engine.profile import ProfileNode, kernel, pop_sink, push_sink

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

    def __init__(self, children: Sequence["Operator"] = ()):
        self.children: List[Operator] = list(children)
        self.profile: Optional[ProfileNode] = None

    def _charge_state(self, n_bytes: int) -> None:
        """Report materialized operator state (hash build, sort buffer)."""
        if self.memory_meter is not None and n_bytes > 0:
            self.memory_meter.hold(self.memory_node, n_bytes)

    # subclasses implement _run(); execute() adds profiling around it.
    def _run(self) -> Iterator[Batch]:
        raise NotImplementedError

    def execute(self) -> Iterator[Batch]:
        self.profile = prof = ProfileNode(self.describe())
        for child in self.children:
            child.profile = None  # filled when the child executes
        out_tuples = 0
        iterator = self._run()
        try:
            while True:
                # the profile node is the ambient kernel sink exactly
                # while _run's code executes (not while suspended at a
                # yield): nested child pulls push their own sinks, so
                # storage/compression kernels land on the right operator
                start = _time.perf_counter()
                push_sink(prof)
                try:
                    batch = next(iterator, _DONE)
                finally:
                    pop_sink()
                    prof.cum_time += _time.perf_counter() - start
                if batch is _DONE:
                    break
                out_tuples += batch.n
                prof.batches += 1
                yield batch
        finally:
            # also runs on cancel (generator close): totals stay honest
            iterator.close()
            prof.tuples_out = out_tuples
            prof.children = [
                c.profile for c in self.children if c.profile is not None
            ]
            prof.tuples_in = sum(c.tuples_out for c in prof.children)

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
        template = None
        yielded = False
        for batch in self.children[0].execute():
            template = batch
            with kernel("select.predicate", rows=batch.n):
                mask = np.asarray(self.predicate.eval(batch.columns),
                                  dtype=bool)
            if mask.all():
                yielded = yielded or batch.n > 0
                yield batch
            elif mask.any():
                yielded = True
                yield batch.select(mask)
        if not yielded and template is not None:
            # keep column names/dtypes flowing even when nothing qualifies
            yield Batch.empty_like(template)


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

_AGG_FUNCS = ("sum", "count", "avg", "min", "max", "count_distinct")


class HashAggr(Operator):
    """Hash group-by with vectorized accumulation.

    Per batch, group keys are factorized with ``np.unique`` and values are
    accumulated with ``np.add.at`` / ``np.minimum.at`` -- the vector-at-a-
    time analogue of Vectorwise's aggregation primitives. Supports
    ``partial=True`` for the paper's partial-aggregation rewrite: partials
    emit (keys, sum, count) that a final HashAggr combines.
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
        key_index: Dict[tuple, int] = {}
        keys_store: List[List] = [[] for _ in self.group_by]
        states = [_new_state(func) for _, func, _ in self.aggregates]

        single_key = len(self.group_by) == 1

        for batch in self.children[0].execute():
            with kernel("aggr.group", rows=batch.n):
                if self.group_by:
                    if single_key:
                        col = batch.columns[self.group_by[0]]
                        uniq, inverse = np.unique(col, return_inverse=True)
                        local_keys = [(v,) for v in uniq.tolist()]
                    else:
                        packed = np.empty(batch.n, dtype=object)
                        packed[:] = list(zip(*(
                            batch.columns[k].tolist() for k in self.group_by
                        )))
                        uniq, inverse = np.unique(packed, return_inverse=True)
                        local_keys = list(uniq)
                else:
                    inverse = np.zeros(batch.n, dtype=np.int64)
                    local_keys = [()]

                # Map local group ids to global ids (few lookups per batch).
                local_to_global = np.empty(len(local_keys), dtype=np.int64)
                for i, key in enumerate(local_keys):
                    gid = key_index.get(key)
                    if gid is None:
                        gid = len(key_index)
                        key_index[key] = gid
                        for pos, part in enumerate(key):
                            keys_store[pos].append(part)
                    local_to_global[i] = gid
                gids = local_to_global[inverse]

            n_groups = len(key_index)
            with kernel("aggr.accumulate", rows=batch.n):
                for (name, func, expr), state in zip(self.aggregates, states):
                    _grow_state(state, func, n_groups)
                    values = (expr.eval(batch.columns)
                              if expr is not None else None)
                    _accumulate(state, func, gids, values, n_groups, batch.n)

        n_groups = len(key_index)
        if n_groups == 0 and not self.group_by:
            # SQL total aggregates return one row even on empty input.
            key_index[()] = 0
            n_groups = 1
            for (_, func, _), state in zip(self.aggregates, states):
                _grow_state(state, func, n_groups)

        out: Dict[str, np.ndarray] = {}
        with kernel("aggr.finalize", rows=n_groups):
            for pos, key_col in enumerate(self.group_by):
                values = keys_store[pos]
                if values and isinstance(values[0], str):
                    arr = np.empty(len(values), dtype=object)
                    arr[:] = values
                else:
                    arr = np.asarray(values)
                out[key_col] = arr
            for (name, func, _), state in zip(self.aggregates, states):
                out[name] = _finalize(state, func, n_groups)
        yield from batches_from_columns(out, DEFAULT_VECTOR_SIZE)


def _new_state(func: str) -> dict:
    """Accumulator state of one aggregate, indexed by global group id:
    numpy arrays for sum/count/avg (grown geometrically, so a batch costs
    one vector add whatever the number of groups), lists for the rest."""
    if func in ("min", "max", "count_distinct"):
        return {"values": []}
    state = {}
    if func in ("sum", "avg"):
        state["sums"] = np.zeros(0, dtype=np.float64)
    if func in ("count", "avg"):
        state["counts"] = np.zeros(0, dtype=np.int64)
    return state


def _grow_state(state: dict, func: str, n_groups: int) -> None:
    """Make room for group ids below ``n_groups`` (once per batch)."""
    for key, held in state.items():
        if isinstance(held, list):
            held.extend(set() if func == "count_distinct" else None
                        for _ in range(n_groups - len(held)))
        elif n_groups > len(held):
            grown = np.zeros(max(n_groups, 2 * len(held)), dtype=held.dtype)
            grown[: len(held)] = held
            state[key] = grown


def _accumulate(state, func, gids, values, n_groups, n) -> None:
    if func in ("sum", "avg"):
        state["sums"][:n_groups] += np.bincount(
            gids, weights=np.asarray(values, np.float64), minlength=n_groups)
    if func in ("count", "avg"):
        state["counts"][:n_groups] += np.bincount(gids, minlength=n_groups)
    if func in ("sum", "count", "avg"):
        return
    if func in ("min", "max"):
        values = np.asarray(values)
        order = np.argsort(gids, kind="stable")
        sorted_gids = gids[order]
        boundaries = np.flatnonzero(np.diff(sorted_gids)) + 1
        group_slices = np.split(order, boundaries)
        present = sorted_gids[np.concatenate([[0], boundaries])] \
            if len(order) else []
        for gid, rows in zip(present, group_slices):
            vals = values[rows]
            local = vals.min() if func == "min" else vals.max()
            current = state["values"][gid]
            if current is None:
                state["values"][gid] = local
            elif func == "min":
                state["values"][gid] = min(current, local)
            else:
                state["values"][gid] = max(current, local)
        return
    if func == "count_distinct":
        for gid, value in zip(gids.tolist(), values):
            state["values"][gid].add(value)
        return
    raise ExecutionError(f"unknown aggregate {func}")


def _finalize(state, func, n_groups) -> np.ndarray:
    if func == "avg":
        counts = np.maximum(state["counts"][:n_groups].astype(np.float64), 1)
        return state["sums"][:n_groups] / counts
    if func == "count":
        return state["counts"][:n_groups]
    if func == "sum":
        return state["sums"][:n_groups]
    if func == "count_distinct":
        return np.asarray([len(s) for s in state["values"]], dtype=np.int64)
    values = state["values"]
    if any(v is None for v in values):
        values = [0 if v is None else v for v in values]
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

class HashJoin(Operator):
    """Hash join: build side materialized, probe side streamed.

    Join types: ``inner``, ``left`` (probe side preserved; adds a boolean
    ``__matched`` column and fills build columns with type defaults),
    ``semi`` and ``anti`` (probe rows with / without a match).
    Single integer keys use a fully vectorized sort + searchsorted probe;
    composite or string keys fall back to a dict build.
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
        build = self.children[0].run_to_batch()
        self._charge_state(batch_bytes(build))
        payload = (list(self.build_payload) if self.build_payload is not None
                   else build.column_names)
        single_int = (
            len(self.build_keys) == 1 and build.n > 0
            and build.columns[self.build_keys[0]].dtype != object
        )
        if build.n == 0:
            single_int = len(self.build_keys) == 1

        if single_int:
            yield from self._run_single_key(build, payload)
        else:
            yield from self._run_generic(build, payload)

    # -- vectorized single integer key path ---------------------------------

    def _run_single_key(self, build: Batch, payload: Sequence[str]):
        bkey = build.columns.get(self.build_keys[0]) if build.n else None
        if bkey is None:
            bkey = np.empty(0, dtype=np.int64)
        with kernel("join.build", rows=build.n):
            order = np.argsort(bkey, kind="stable")
            sorted_keys = bkey[order]
        pk_name = self.probe_keys[0]
        for batch in self.children[1].execute():
            # probe work happens inside the kernel; the yields stay
            # outside so the frame never spans a generator suspension
            with kernel("join.probe", rows=batch.n):
                out_batches = self._probe_single_key(
                    batch, build, payload, pk_name, sorted_keys, order)
            yield from out_batches

    def _probe_single_key(self, batch: Batch, build: Batch,
                          payload: Sequence[str], pk_name: str,
                          sorted_keys: np.ndarray,
                          order: np.ndarray) -> List[Batch]:
        pkey = batch.columns[pk_name]
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

    # -- generic (composite / string key) path ---------------------------------

    def _run_generic(self, build: Batch, payload: Sequence[str]):
        table: Dict[tuple, List[int]] = {}
        with kernel("join.build", rows=build.n):
            if build.n:
                key_cols = [build.columns[k].tolist() for k in self.build_keys]
                for row, key in enumerate(zip(*key_cols)):
                    table.setdefault(key, []).append(row)
        for batch in self.children[1].execute():
            with kernel("join.probe", rows=batch.n):
                out_batches = self._probe_generic(batch, build, payload, table)
            yield from out_batches

    def _probe_generic(self, batch: Batch, build: Batch,
                       payload: Sequence[str],
                       table: Dict[tuple, List[int]]) -> List[Batch]:
        key_cols = [batch.columns[k].tolist() for k in self.probe_keys]
        probe_idx: List[int] = []
        build_idx: List[int] = []
        matched = np.zeros(batch.n, dtype=bool)
        for row, key in enumerate(zip(*key_cols)):
            rows = table.get(key)
            if rows:
                matched[row] = True
                probe_idx.extend([row] * len(rows))
                build_idx.extend(rows)
        if self.join_type == "semi":
            return [batch.select(matched)]
        if self.join_type == "anti":
            return [batch.select(~matched)]
        pidx = np.asarray(probe_idx, dtype=np.int64)
        bidx = np.asarray(build_idx, dtype=np.int64)
        out = {k: v[pidx] for k, v in batch.columns.items()}
        for name in payload:
            out[name] = build.columns[name][bidx]
        if self.join_type == "left":
            out["__matched"] = np.ones(len(pidx), bool)
            unmatched = ~matched
            if unmatched.any():
                miss = {k: v[unmatched] for k, v in batch.columns.items()}
                for name in payload:
                    miss[name] = _fill_like(build.columns[name],
                                            int(unmatched.sum()))
                miss["__matched"] = np.zeros(int(unmatched.sum()), bool)
                return [Batch(out, len(pidx)), Batch(miss, int(unmatched.sum()))]
        return [Batch(out, len(pidx))]


def _fill_like(column: np.ndarray, n: int) -> np.ndarray:
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
        yield from batches_from_columns(out, DEFAULT_VECTOR_SIZE)


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------

def stable_order(columns: Dict[str, np.ndarray], keys: Sequence[str],
                 ascending: Sequence[bool]) -> np.ndarray:
    """Stable multi-key argsort with per-key direction."""
    n = len(next(iter(columns.values())))
    order = np.arange(n)
    for key, asc in list(zip(keys, ascending))[::-1]:
        col = columns[key][order]
        if col.dtype == object:
            _, codes = np.unique(col, return_inverse=True)
            col = codes
        if not asc:
            col = -col.astype(np.float64) if col.dtype != object else col
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
        yield from batches_from_columns(ordered, DEFAULT_VECTOR_SIZE)


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
