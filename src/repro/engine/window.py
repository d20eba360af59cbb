"""Window functions: SQL'2003 analytics over PARTITION BY groups.

The paper's intro names window functions (PARTITION BY, ROLL UP, GROUPING
SETS) as the analytical SQL an MPP engine must run well. ``Window``
materializes its input, orders it by (partition keys, order keys) and
computes the requested functions per partition with vectorized
segment-wise kernels; the Parallel Rewriter places it after a hash split
on the partition keys so each group is computed wholly on one worker.

Supported functions: ``row_number``, ``rank``, ``dense_rank``,
``cum_sum`` (running sum in window order), and the partition-wide
aggregates ``sum``, ``avg``, ``min``, ``max``, ``count``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.engine.batch import Batch, batch_bytes, batches_from_columns
from repro.engine.expressions import Expr
from repro.engine.operators import Operator, stable_order
from repro.engine.profile import kernel

#: (output name, function, input expression or None)
WindowSpec = Tuple[str, str, Optional[Expr]]

_FUNCS = ("row_number", "rank", "dense_rank", "cum_sum",
          "sum", "avg", "min", "max", "count")


class Window(Operator):
    """Compute window functions over PARTITION BY / ORDER BY groups."""

    label = "Window"

    def __init__(self, child: Operator, partition_by: Sequence[str],
                 order_by: Sequence[str], functions: Sequence[WindowSpec],
                 ascending: Optional[Sequence[bool]] = None):
        super().__init__([child])
        self.partition_by = list(partition_by)
        self.order_by = list(order_by)
        self.functions = list(functions)
        self.ascending = (list(ascending) if ascending
                          else [True] * len(self.order_by))
        for _, func, _ in self.functions:
            if func not in _FUNCS:
                raise ExecutionError(f"unknown window function {func}")

    def describe(self):
        names = ",".join(name for name, _, _ in self.functions)
        return (f"Window[{names} OVER "
                f"(PARTITION BY {','.join(self.partition_by) or '-'} "
                f"ORDER BY {','.join(self.order_by) or '-'})]")

    def _run(self):
        data = self.children[0].run_to_batch()
        self._charge_state(batch_bytes(data))
        if data.n == 0:
            out = dict(data.columns)
            for name, _, _ in self.functions:
                out[name] = np.empty(0)
            yield Batch(out, 0)
            return
        with kernel("window.order", rows=data.n):
            keys = self.partition_by + self.order_by
            asc = [True] * len(self.partition_by) + self.ascending
            order = (stable_order(data.columns, keys, asc) if keys
                     else np.arange(data.n))
            cols = {k: v[order] for k, v in data.columns.items()}
            starts = _partition_starts(cols, self.partition_by, data.n)
            group_ids = np.zeros(data.n, dtype=np.int64)
            group_ids[starts[1:]] = 1
            group_ids = np.cumsum(group_ids)
            group_sizes = np.diff(np.append(starts, data.n))

        with kernel("window.eval", rows=data.n):
            for name, func, expr in self.functions:
                values = (np.asarray(expr.eval(cols), dtype=np.float64)
                          if expr is not None else None)
                cols[name] = _compute(func, values, cols, self, group_ids,
                                      starts, group_sizes, data.n)
        yield from batches_from_columns(cols, self.vector_size)


def _partition_starts(cols, partition_by, n) -> np.ndarray:
    if not partition_by:
        return np.array([0], dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in partition_by:
        col = cols[key]
        changed[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(changed)


def _compute(func, values, cols, window, group_ids, starts, sizes, n):
    position_in_group = np.arange(n) - starts[group_ids]
    if func == "row_number":
        return position_in_group + 1
    if func in ("rank", "dense_rank"):
        return _ranks(cols, window, group_ids, starts, n,
                      dense=(func == "dense_rank"))
    if func == "cum_sum":
        running = np.cumsum(values)
        base = np.where(starts > 0, running[starts - 1], 0.0)
        return running - base[group_ids]
    if func == "count":
        return sizes[group_ids].astype(np.int64)
    if func == "sum" or func == "avg":
        sums = np.bincount(group_ids, weights=values, minlength=len(starts))
        if func == "avg":
            return (sums / sizes)[group_ids]
        return sums[group_ids]
    if func == "min" or func == "max":
        out = np.empty(len(starts))
        bounds = np.append(starts, n)
        for g in range(len(starts)):
            seg = values[bounds[g]: bounds[g + 1]]
            out[g] = seg.min() if func == "min" else seg.max()
        return out[group_ids]
    raise ExecutionError(f"unknown window function {func}")


def _ranks(cols, window, group_ids, starts, n, dense):
    """SQL rank/dense_rank over the window order keys within each group."""
    if not window.order_by:
        return np.ones(n, dtype=np.int64)
    new_value = np.zeros(n, dtype=bool)
    new_value[starts] = True
    for key in window.order_by:
        col = cols[key]
        new_value[1:] |= col[1:] != col[:-1]
    if dense:
        dense_counter = np.cumsum(new_value)
        base = dense_counter[starts]
        return dense_counter - base[group_ids] + 1
    # rank = 1-based position of the first row with an equal key
    first_of_run = np.maximum.accumulate(
        np.where(new_value, np.arange(n), -1)
    )
    return first_of_run - starts[group_ids] + 1
