"""Query-lifecycle tracing: nested spans over both clocks.

A :class:`Tracer` records nested :class:`Span`\\ s across the full query
lifecycle (parse -> bind -> rewrite -> assignment -> schedule ->
per-stream execute -> exchange flush/recv -> commit). Every span carries
*two* durations: wall time (``perf_counter``, what this single process
spent) and the simulator's charged time (the :class:`SimClock` advanced by
the stream scheduler -- the cluster-equivalent critical path). Traces
export as a text tree (which subsumes the old ``format_profile`` output:
operator profiles are grafted into the execute span) and as Chrome-trace
JSON loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


class SimClock:
    """Cumulative simulated seconds charged by the stream schedulers."""

    def __init__(self):
        self.seconds = 0.0

    def advance(self, dt: float) -> None:
        if dt > 0:
            self.seconds += dt


@dataclass
class Span:
    """One traced region; durations on both the wall and simulated clock."""

    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    wall_start: float = 0.0
    wall_end: float = 0.0
    sim_start: float = 0.0
    sim_end: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.wall_end - self.wall_start)

    @property
    def sim_seconds(self) -> float:
        return max(0.0, self.sim_end - self.sim_start)

    # -- navigation ----------------------------------------------------------

    def iter_spans(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> Optional["Span"]:
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    # -- exports -------------------------------------------------------------

    def tree(self, indent: int = 0) -> str:
        """Text rendering: one line per span, both clocks, key attrs."""
        pad = "  " * indent
        attrs = ""
        if self.attrs:
            body = " ".join(f"{k}={v}" for k, v in self.attrs.items())
            attrs = f"  [{body}]"
        lines = [
            f"{pad}{self.name}  wall={self.wall_seconds * 1e3:.3f}ms"
            f"  sim={self.sim_seconds * 1e3:.3f}ms{attrs}"
        ]
        for child in self.children:
            lines.append(child.tree(indent + 1))
        return "\n".join(lines)

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome-trace ("trace event") dict for this span tree."""
        events: List[Dict[str, object]] = []
        base = self.wall_start

        def emit(span: Span) -> None:
            args = dict(span.attrs)
            args["sim_seconds"] = round(span.sim_seconds, 9)
            events.append({
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((span.wall_start - base) * 1e6, 3),
                "dur": round(span.wall_seconds * 1e6, 3),
                "args": args,
            })
            for child in span.children:
                emit(child)

        emit(self)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_trace_json(self, **kwargs) -> str:
        return json.dumps(self.chrome_trace(), **kwargs)


def span_from_profile(node, parent_span: Span, start: float) -> Span:
    """Graft one operator-profile tree under an execute span, from
    ``start`` on the wall clock.

    The engine interleaves operators and streams on one thread, so true
    intervals do not exist: an operator's span holds its children's
    spans, then its kernels as leaf spans, then its pulls' own seconds,
    end to end, so it lasts what its subtree spent over all streams and
    the tree lasts the wall spent inside operator pulls. Profiles measure
    wall time only: the spans sit at the parent's simulated instant and
    carry tuple counts, per-stream times and wire traffic as attributes
    -- this is what lets the trace tree subsume ``format_profile``.
    """
    attrs: Dict[str, object] = {
        "tuples_in": node.tuples_in,
        "tuples_out": node.tuples_out,
    }
    if len(node.stream_times) > 1:
        attrs["streams"] = len(node.stream_times)
        attrs["stream_min_s"] = round(min(node.stream_times), 6)
        attrs["stream_max_s"] = round(max(node.stream_times), 6)
    if node.net_bytes:
        attrs["net_bytes"] = node.net_bytes
    if node.net_messages:
        attrs["net_messages"] = node.net_messages
    sim = parent_span.sim_start
    span = Span(node.label, attrs, wall_start=start, sim_start=sim,
                sim_end=sim)
    parent_span.children.append(span)
    cursor = start
    for child in node.children:
        cursor = span_from_profile(child, span, cursor).wall_end
    for name, stat in sorted(node.kernels.items()):
        span.children.append(Span(
            f"kernel:{name}",
            {"calls": stat.calls, "rows": stat.rows, "bytes": stat.bytes},
            wall_start=cursor, wall_end=cursor + stat.seconds,
            sim_start=sim, sim_end=sim))
        cursor += stat.seconds
    span.wall_end = cursor + node.own_seconds
    return span


class Tracer:
    """Records span trees; always on (recording is a few dict writes).

    Spans opened while another span is active nest under it; a span
    opened with no active parent starts a new root trace, published on
    completion as :attr:`last_trace`. The workload manager's queries
    interleave, so the single stack cannot nest them: it assembles the
    tree of a query that has a reader (``trace=True``, or a span open at
    submission) by hand, and sets :attr:`last_trace` itself for a traced
    query submitted outside any span.
    """

    def __init__(self, sim_clock: Optional[SimClock] = None):
        self.sim_clock = sim_clock or SimClock()
        self._stack: List[Span] = []
        self.last_trace: Optional[Span] = None

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        s = Span(name=name, attrs=attrs)
        s.wall_start = _time.perf_counter()
        s.sim_start = self.sim_clock.seconds
        parent = self.current
        if parent is not None:
            parent.children.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.wall_end = _time.perf_counter()
            s.sim_end = self.sim_clock.seconds
            if parent is None:
                self.last_trace = s


#: fallback for components not wired to a cluster (never published)
NULL_TRACER = Tracer()
