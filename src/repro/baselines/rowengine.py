"""A tuple-at-a-time row engine interpreting the same logical plans.

This is the architectural foil to the vectorized engine: every expression
is re-interpreted per tuple (``Expr.eval_row``), rows are python dicts, and
operators materialize between stages (the MapReduce/Tez habit). Updates are
handled Hive-style with **delta stores merged by key** during every scan --
the key-comparison cost that positional PDT merging avoids, and the source
of the Figure-7 GeoDiff gap.

The engine reports both real elapsed time and a *simulated parallel* time
(scan work divides across workers; join/aggregation work divides only for
engines with multi-core joins -- the paper blames Impala's single-core
joins for much of its gap).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.engine.batch import Batch
from repro.mpp import logical as L


@dataclass
class RowStats:
    """Accounting for the last executed plan."""

    elapsed: float = 0.0
    scan_seconds: float = 0.0
    exec_seconds: float = 0.0
    n_stages: int = 0
    rows_scanned: int = 0
    delta_merged_rows: int = 0

    def simulated_parallel_seconds(self, workers: int,
                                   single_core_joins: bool,
                                   stage_overhead: float) -> float:
        exec_div = 1 if single_core_joins else workers
        return (self.scan_seconds / workers
                + self.exec_seconds / exec_div
                + stage_overhead * self.n_stages)


@dataclass
class DeltaStore:
    """Hive-style delta tables for one base table (inserts/deletes/mods).

    Merging happens by *key comparison* on every scan: deleted keys are
    probed per row, modified rows overlaid per row, inserts appended.
    """

    key_columns: Tuple[str, ...]
    inserts: List[dict] = field(default_factory=list)
    deletes: set = field(default_factory=set)
    modifies: Dict[tuple, dict] = field(default_factory=dict)

    def key_of(self, row: dict) -> tuple:
        return tuple(row[k] for k in self.key_columns)

    def is_empty(self) -> bool:
        return not (self.inserts or self.deletes or self.modifies)


class RowEngineRunner:
    """Callable runner: ``runner(plan) -> Batch`` like the VectorH side."""

    def __init__(
        self,
        tables: Dict[str, object],  # name -> OrcLikeTable/ParquetLikeTable
        workers: int = 9,
        use_skipping: bool = True,
        single_core_joins: bool = False,
        stage_overhead: float = 0.0,
        delta_keys: Optional[Dict[str, Tuple[str, ...]]] = None,
    ):
        self.tables = tables
        self.workers = workers
        self.use_skipping = use_skipping
        self.single_core_joins = single_core_joins
        self.stage_overhead = stage_overhead
        self.deltas: Dict[str, DeltaStore] = {}
        if delta_keys:
            for name, keys in delta_keys.items():
                self.deltas[name] = DeltaStore(keys)
        self.last_stats = RowStats()

    # ------------------------------------------------------------------ updates

    def delta_insert(self, table: str, rows: Sequence[dict]) -> None:
        self.deltas[table].inserts.extend(rows)

    def delta_delete(self, table: str, keys: Sequence[tuple]) -> None:
        self.deltas[table].deletes.update(keys)

    # ------------------------------------------------------------------ running

    def __call__(self, plan: L.LogicalPlan) -> Batch:
        return self.run(plan)

    def run(self, plan: L.LogicalPlan) -> Batch:
        self.last_stats = RowStats()
        start = _time.perf_counter()
        rows = self._stage(L.derive_scan_triples(plan))
        self.last_stats.elapsed = _time.perf_counter() - start
        return _rows_to_batch(rows)

    def simulated_seconds(self) -> float:
        return self.last_stats.simulated_parallel_seconds(
            self.workers, self.single_core_joins, self.stage_overhead
        )

    # -------------------------------------------------------------- interpreter

    def _stage(self, plan: L.LogicalPlan) -> List[dict]:
        """Execute one operator, materializing its output (stage barrier)."""
        self.last_stats.n_stages += 1
        if isinstance(plan, L.LScan):
            return self._scan(plan)
        t0 = _time.perf_counter()
        if isinstance(plan, L.LSelect):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = [r for r in child if plan.predicate.eval_row(r)]
        elif isinstance(plan, L.LProject):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = [{name: expr.eval_row(r)
                    for name, expr in plan.outputs.items()} for r in child]
        elif isinstance(plan, L.LJoin):
            build = self._stage(plan.build)
            probe = self._stage(plan.probe)
            t0 = _time.perf_counter()
            out = self._join(plan, build, probe)
        elif isinstance(plan, L.LAggr):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = self._aggregate(plan, child)
        elif isinstance(plan, L.LSort):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = _sorted_rows(child, plan.keys,
                               plan.ascending or [True] * len(plan.keys))
        elif isinstance(plan, L.LTopN):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = _sorted_rows(child, plan.keys,
                               plan.ascending or [True] * len(plan.keys))
            out = out[: plan.n]
        elif isinstance(plan, L.LLimit):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = child[: plan.n]
        elif isinstance(plan, L.LWindow):
            child = self._stage(plan.child)
            t0 = _time.perf_counter()
            out = self._window(plan, child)
        elif isinstance(plan, L.LUnionAll):
            parts = [self._stage(c) for c in plan.inputs]
            t0 = _time.perf_counter()
            out = [row for part in parts for row in part]
        else:
            raise ExecutionError(f"row engine: unknown node {plan!r}")
        self.last_stats.exec_seconds += _time.perf_counter() - t0
        return out

    # ------------------------------------------------------------------- scans

    def _scan(self, plan: L.LScan) -> List[dict]:
        table = self.tables[plan.table]
        predicates = list(plan.skip_predicates) if self.use_skipping else []
        delta = self.deltas.get(plan.table)
        t0 = _time.perf_counter()
        out: List[dict] = []
        if delta is None or delta.is_empty():
            for row in table.scan_rows(plan.columns, predicates):
                out.append(row)
        else:
            # Hive-ACID-style merge: the delta files are re-read and
            # re-sorted for every scan, and every base row builds its key
            # and binary-searches the sorted delete delta -- the per-tuple
            # key-comparison work that positional PDT merging avoids.
            import bisect
            import pickle
            key_cols = delta.key_columns
            delete_delta = sorted(
                pickle.loads(pickle.dumps(list(delta.deletes))))
            insert_delta = sorted(
                pickle.loads(pickle.dumps(delta.inserts)),
                key=delta.key_of)
            merged = []
            for row in table.scan_rows(
                list(dict.fromkeys(list(plan.columns) + list(key_cols))),
                predicates,
            ):
                key = delta.key_of(row)
                self.last_stats.delta_merged_rows += 1
                pos = bisect.bisect_left(delete_delta, key)
                if pos < len(delete_delta) and delete_delta[pos] == key:
                    continue
                mods = delta.modifies.get(key)
                if mods:
                    row = dict(row)
                    row.update(mods)
                merged.append((key, row))
            # The ACID merge is a key-ordered sorted-merge of base and
            # delta files; the base slice must therefore be produced in
            # key order -- a per-scan sort that positional PDT merging
            # never needs.
            merged.sort(key=lambda pair: pair[0])
            out.extend({c: row[c] for c in plan.columns}
                       for _, row in merged)
            deletes = set(delete_delta)
            for ins in insert_delta:
                if delta.key_of(ins) not in deletes:
                    out.append({c: ins[c] for c in plan.columns})
        self.last_stats.scan_seconds += _time.perf_counter() - t0
        self.last_stats.rows_scanned += len(out)
        return out

    # ------------------------------------------------------------------- joins

    def _join(self, plan: L.LJoin, build: List[dict],
              probe: List[dict]) -> List[dict]:
        table: Dict[tuple, List[dict]] = {}
        for row in build:
            key = tuple(row[k] for k in plan.build_keys)
            table.setdefault(key, []).append(row)
        payload = plan.build_payload
        out: List[dict] = []
        for row in probe:
            key = tuple(row[k] for k in plan.probe_keys)
            matches = table.get(key)
            if plan.how == "semi":
                if matches:
                    out.append(row)
                continue
            if plan.how == "anti":
                if not matches:
                    out.append(row)
                continue
            if matches:
                for b in matches:
                    merged = dict(row)
                    cols = payload if payload is not None else b.keys()
                    for name in cols:
                        merged[name] = b[name]
                    if plan.how == "left":
                        merged["__matched"] = True
                    out.append(merged)
            elif plan.how == "left":
                merged = dict(row)
                cols = payload if payload is not None else (
                    build[0].keys() if build else ()
                )
                for name in cols:
                    merged[name] = None
                merged["__matched"] = False
                out.append(merged)
        return out

    # -------------------------------------------------------------- aggregation

    def _aggregate(self, plan: L.LAggr, rows: List[dict]) -> List[dict]:
        groups: Dict[tuple, list] = {}
        for row in rows:
            key = tuple(row[k] for k in plan.group_by)
            state = groups.get(key)
            if state is None:
                state = []
                for _, func, _ in plan.aggregates:
                    if func == "count_distinct":
                        state.append(set())
                    elif func == "avg":
                        state.append([0.0, 0])
                    elif func in ("min", "max"):
                        state.append(None)
                    else:
                        state.append(0)
                groups[key] = state
            for i, (_, func, expr) in enumerate(plan.aggregates):
                value = expr.eval_row(row) if expr is not None else 1
                if func == "count":
                    state[i] += 1
                elif func == "sum":
                    state[i] += value
                elif func == "avg":
                    state[i][0] += value
                    state[i][1] += 1
                elif func == "min":
                    state[i] = value if state[i] is None else min(state[i], value)
                elif func == "max":
                    state[i] = value if state[i] is None else max(state[i], value)
                elif func == "count_distinct":
                    state[i].add(value)
        if not groups and not plan.group_by:
            groups[()] = [
                set() if f == "count_distinct" else [0.0, 1] if f == "avg"
                else 0 for _, f, _ in plan.aggregates
            ]
        out = []
        for key, state in groups.items():
            row = dict(zip(plan.group_by, key))
            for i, (name, func, _) in enumerate(plan.aggregates):
                if func == "avg":
                    row[name] = state[i][0] / max(state[i][1], 1)
                elif func == "count_distinct":
                    row[name] = len(state[i])
                else:
                    row[name] = state[i] if state[i] is not None else 0
            out.append(row)
        return out


    # ------------------------------------------------------------- windows

    def _window(self, plan: L.LWindow, rows: List[dict]) -> List[dict]:
        asc = plan.ascending or [True] * len(plan.order_by)
        ordered = _sorted_rows(rows, plan.order_by, asc)
        ordered = _sorted_rows(ordered, plan.partition_by,
                               [True] * len(plan.partition_by))
        groups: Dict[tuple, List[dict]] = {}
        for row in ordered:
            key = tuple(row[k] for k in plan.partition_by)
            groups.setdefault(key, []).append(row)
        out: List[dict] = []
        for members in groups.values():
            for name, func, expr in plan.functions:
                values = [expr.eval_row(r) for r in members] \
                    if expr is not None else None
                self._window_fill(name, func, members, values, plan)
            out.extend(members)
        return out

    def _window_fill(self, name, func, members, values, plan):
        if func == "row_number":
            for i, row in enumerate(members):
                row[name] = i + 1
        elif func in ("rank", "dense_rank"):
            rank = dense = 0
            prev = object()
            for i, row in enumerate(members):
                key = tuple(row[k] for k in plan.order_by)
                if key != prev:
                    rank = i + 1
                    dense += 1
                    prev = key
                row[name] = dense if func == "dense_rank" else rank
        elif func == "cum_sum":
            running = 0.0
            for row, v in zip(members, values):
                running += v
                row[name] = running
        elif func == "count":
            for row in members:
                row[name] = len(members)
        elif func in ("sum", "avg", "min", "max"):
            total = {"sum": sum(values),
                     "avg": sum(values) / len(values),
                     "min": min(values), "max": max(values)}[func]
            for row in members:
                row[name] = total
        else:
            raise ExecutionError(f"unknown window function {func}")


def _sorted_rows(rows: List[dict], keys: Sequence[str],
                 ascending: Sequence[bool]) -> List[dict]:
    out = list(rows)
    for key, asc in list(zip(keys, ascending))[::-1]:
        out.sort(key=lambda r: r[key], reverse=not asc)
    return out


def _rows_to_batch(rows: List[dict]) -> Batch:
    if not rows:
        return Batch({}, 0)
    names = list(rows[0])
    columns = {}
    for name in names:
        values = [r[name] for r in rows]
        if isinstance(values[0], str):
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        else:
            arr = np.asarray(values)
        columns[name] = arr
    return Batch(columns, len(rows))
