"""Append-only cluster event log, stamped with both clocks.

Metrics aggregate, traces cover one query -- events are the irregular
cluster-level facts in between: node failures and recoveries,
re-replication and rebalancing, YARN preemptions, 2PC outcomes, schema
changes, worker-set growth and shrinkage. Each event carries the
simulated clock (so it interleaves causally with query spans on the
cluster-equivalent timeline) plus wall time, a coarse ``source``
(hdfs/yarn/txn/cluster/monitor) and a ``kind`` with free-form
attributes. The log is append-only; ``vh$events`` exposes it through
SQL. A ``retention`` cap bounds memory (a bare log keeps everything; a
cluster's log is capped at its ``EVENT_LOG_CAPACITY``) -- on overflow
the oldest events fall off the front, ``events_dropped_total`` (read
back as ``dropped``) counts how many, and ``seq`` stays monotonic so
gaps are visible.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class Event:
    """One recorded cluster event."""

    seq: int
    sim_time: float  # SimClock seconds when the event happened
    wall_time: float  # time.time() for log correlation
    source: str  # hdfs | yarn | txn | cluster
    kind: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def detail(self) -> str:
        """Flat ``k=v`` rendering of the attributes (the vh$events form)."""
        return " ".join(f"{k}={v}" for k, v in self.attrs.items())


class ClusterEventLog:
    """Append-only event sink shared by every subsystem of one cluster."""

    def __init__(self, sim_clock=None, retention: int = 0, registry=None):
        self._sim_clock = sim_clock
        self.retention = int(retention)  # 0 = keep everything
        self._events: Deque[Event] = deque()
        self._seq = 0
        self._dropped = (registry or MetricsRegistry()).counter(
            "events_dropped_total",
            "Cluster events evicted by the event-log retention cap")

    @property
    def dropped(self) -> int:
        return int(self._dropped.total())

    def emit(self, source: str, kind: str, **attrs) -> Event:
        sim = self._sim_clock.seconds if self._sim_clock is not None else 0.0
        event = Event(
            seq=self._seq,
            sim_time=sim,
            wall_time=_time.time(),
            source=source,
            kind=kind,
            attrs=dict(attrs),
        )
        self._seq += 1
        self._events.append(event)
        if self.retention and len(self._events) > self.retention:
            self._events.popleft()
            self._dropped.inc()
        return event

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def events(self) -> List[Event]:
        return list(self._events)

    def tail(self, n: int = 20) -> List[Event]:
        return list(self._events)[-n:]

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self._events if e.kind == kind]

    def last(self, kind: Optional[str] = None) -> Optional[Event]:
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None
