"""Spans recorded from outside the program.

The benchmark wraps the layers' public entry points at run time (nothing
under ``src/`` knows about it). Execution is single-threaded, so the
Python call stack *is* the span tree: a wrapper pushes a frame, calls
through, pops it, and adds its duration to the parent frame's "covered
by children" total. A span's self time is its duration minus that total,
so the self times of one statement's spans add up to the statement's
wall time exactly; whatever no wrapped layer accounts for stays on the
root span (``bench.stmt``).

Timing never comes from the program's own profiler or simulated clock.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "bench.stmt"

_DONE = object()

#: operator class name -> span name of its generator pulls
OPERATOR_SPANS = {
    "Select": "engine.select",
    "Project": "engine.project",
    "HashAggr": "engine.aggr",
    "HashJoin": "engine.join",
    "MergeJoin": "engine.join",
    "Sort": "engine.sort",
    "TopN": "engine.sort",
    "Limit": "engine.sort",
    "DXchgSender": "engine.xchg_send",
    "DXchgReceiver": "engine.xchg_recv",
    "StreamingScan": "mpp.scan",
}
OTHER_OPERATOR = "engine.other"
#: every span name an operator pull can carry
PULL_SPANS = sorted(set(OPERATOR_SPANS.values()) | {OTHER_OPERATOR})


class StatementTrace:
    """What one traced statement cost: wall, self time and calls per span
    name, rows leaving each operator kind, and (for the first few
    statements of a template) the raw spans for the Chrome trace."""

    __slots__ = ("template", "wall", "self_s", "calls", "rows", "raw")

    def __init__(self, template: str, wall: float, self_s: Dict[str, float],
                 calls: Dict[str, int], rows: Dict[str, int],
                 raw: Optional[list]):
        self.template = template
        self.wall = wall
        self.self_s = self_s
        self.calls = calls
        self.rows = rows
        self.raw = raw


class Recorder:
    """In-memory span store; ``on`` only between begin/end of a statement."""

    def __init__(self):
        self.on = False
        self._stack: List[list] = []
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        self.rows: Dict[str, int] = defaultdict(int)
        self._raw: Optional[list] = None
        self.submit_started = 0.0

    def enter(self, name: str) -> list:
        # frame: name, start, seconds covered by children, index of the
        # parent's raw span (-1 when raw spans are not kept)
        frame = [name, 0.0, 0.0, -1]
        if self._raw is not None:
            frame[3] = len(self._raw)
            parent = self._stack[-1][3] if self._stack else -1
            self._raw.append([name, 0.0, 0.0, parent])
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self._self[frame[0]] += duration - frame[2]
        self._calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if self._raw is not None:
            span = self._raw[frame[3]]
            span[1], span[2] = frame[1], end
        return duration

    def begin_statement(self, keep_raw: bool) -> list:
        self._self.clear()
        self._calls.clear()
        self.rows.clear()
        self._raw = [] if keep_raw else None
        self.on = True
        return self.enter(ROOT)

    def end_statement(self, frame: list, template: str) -> StatementTrace:
        wall = self.exit(frame)
        self.on = False
        trace = StatementTrace(template, wall, dict(self._self),
                               dict(self._calls), dict(self.rows), self._raw)
        self._raw = None
        return trace


def _wrap(rec: Recorder, name: str, fn: Callable,
          on_enter: Optional[Callable] = None) -> Callable:
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        frame = rec.enter(name)
        if on_enter is not None:
            on_enter(rec, frame)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(frame)
    return traced


def _submit_entered(rec: Recorder, frame: list) -> None:
    rec.submit_started = frame[1]


def _prepare_entered(rec: Recorder, frame: list) -> None:
    """Admission wait, from outside: entering ``submit`` to entering the
    ``prepare`` that admission triggers."""
    rec.rows["workload.admit_wait_ns"] += int(
        (frame[1] - rec.submit_started) * 1e9)


def _wrap_commit(rec: Recorder, fn: Callable) -> Callable:
    """Every read ends in an empty implicit commit; only commits that
    carry updates count as ``txn.commit``."""
    def traced(self, txn):
        if not rec.on:
            return fn(self, txn)
        frame = rec.enter("txn.commit" if txn.is_update()
                          else "txn.commit_ro")
        try:
            return fn(self, txn)
        finally:
            rec.exit(frame)
    return traced


def _wrap_gather(rec: Recorder, fn: Callable) -> Callable:
    def traced(self, query_id):
        if not rec.on:
            return fn(self, query_id)
        frame = rec.enter("workload.gather")
        try:
            result = fn(self, query_id)
            rec.rows["workload.rounds"] += result.rounds
            return result
        finally:
            rec.exit(frame)
    return traced


def _pulls(rec: Recorder, name: str, inner):
    """One span per generator pull of one operator."""
    try:
        while True:
            frame = rec.enter(name)
            try:
                batch = next(inner, _DONE)
            finally:
                rec.exit(frame)
            if batch is _DONE:
                return
            rec.rows[name] += batch.n
            yield batch
    finally:
        inner.close()


def _wrap_execute(rec: Recorder, fn: Callable) -> Callable:
    def traced(self):
        inner = fn(self)
        if not rec.on:
            return inner
        name = OPERATOR_SPANS.get(type(self).__name__, OTHER_OPERATOR)
        return _pulls(rec, name, inner)
    return traced


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped entry point."""
    from repro.cluster.vectorh import VectorHCluster
    from repro.engine.exchange import Exchange
    from repro.hdfs.cluster import HdfsCluster
    from repro.mpp.rewriter import ParallelRewriter
    from repro.net.mpi import MpiFabric
    from repro.obs.monitor import FlightRecorder
    from repro.obs.profiler import ContinuousProfiler
    from repro.server.cache import EpochKeyedCache
    from repro.server.frontend import ClientConnection, PendingResult
    from repro.sql.binder import _SelectBinder
    from repro.sql.parser import SqlParser
    from repro.storage import colstore, table
    from repro.storage.buffer import BufferPool

    return [
        (ClientConnection, "simple_query", "server.simple_query"),
        (ClientConnection, "bind", "server.bind"),
        (ClientConnection, "execute", "server.execute"),
        (PendingResult, "result", "server.result"),
        (EpochKeyedCache, "lookup", "server.cache"),
        (EpochKeyedCache, "store", "server.cache"),
        (SqlParser, "parse", "sql.parse"),
        (_SelectBinder, "plan", "sql.bind"),
        (ParallelRewriter, "plan", "mpp.plan"),
        (VectorHCluster, "insert", "cluster.dml"),
        (VectorHCluster, "delete_where", "cluster.dml"),
        (VectorHCluster, "update_where", "cluster.dml"),
        (table.StoredTable, "scan_partition", "storage.scan"),
        (table.StoredTable, "propagate", "storage.propagate"),
        (BufferPool, "read", "storage.pool_read"),
        (HdfsCluster, "read", "hdfs.read"),
        (colstore, "decompress", "compression.decompress"),
        (table, "apply_entries", "pdt.merge"),
        (Exchange, "transfer", "engine.xchg_transfer"),
        (Exchange, "pump", "engine.xchg_pump"),
        (MpiFabric, "send", "net.send"),
        (MpiFabric, "send_message", "net.send"),
        (FlightRecorder, "tick", "obs.monitor"),
        (FlightRecorder, "record_query", "obs.monitor"),
        (ContinuousProfiler, "observe_query", "obs.profiler"),
    ]


@contextmanager
def installed(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    from repro.engine.operators import Operator
    from repro.mpp.executor import MppExecutor
    from repro.txn.manager import TransactionManager
    from repro.workload.manager import WorkloadManager

    patches = [(owner, attr, _wrap(rec, name, getattr(owner, attr)))
               for owner, attr, name in _targets()]
    patches += [
        (WorkloadManager, "submit", _wrap(
            rec, "workload.submit", WorkloadManager.submit, _submit_entered)),
        (MppExecutor, "prepare", _wrap(
            rec, "mpp.prepare", MppExecutor.prepare, _prepare_entered)),
        (Operator, "execute", _wrap_execute(rec, Operator.execute)),
        (TransactionManager, "commit",
         _wrap_commit(rec, TransactionManager.commit)),
        (WorkloadManager, "gather",
         _wrap_gather(rec, WorkloadManager.gather)),
    ]
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield rec
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def write_chrome_trace(path, traces: List[StatementTrace]) -> int:
    """One Chrome-trace JSON: a thread per kept statement; returns the
    number of spans written."""
    events = []
    for stmt_id, trace in enumerate(traces, 1):
        if not trace.raw:
            continue
        origin = trace.raw[0][1]
        for name, start, end, parent in trace.raw:
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": stmt_id,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"template": trace.template,
                         "parent": trace.raw[parent][0] if parent >= 0
                         else None},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
    return len(events)
