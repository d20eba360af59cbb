"""repro.obs: the unified observability layer.

* :class:`MetricsRegistry` -- label-keyed counters/gauges/histograms with
  ``snapshot()``, ``reset()`` and Prometheus-style ``render()``; every
  subsystem of a :class:`~repro.cluster.VectorHCluster` charges its
  accounting here.
* :class:`Tracer` / :class:`Span` -- nested query-lifecycle spans
  recording wall time *and* the simulator's charged time, exportable as a
  text tree or Chrome-trace JSON.
* :class:`ClusterEventLog` / :class:`Event` -- append-only log of
  irregular cluster facts (failures, re-replication, preemption, 2PC
  outcomes, DDL), queryable through the ``vh$events`` system table.
* :class:`ContinuousProfiler` -- always-on charging of per-operator /
  per-kernel execution profiles into the registry (``vh$operator_stats``,
  ``vh$hot_paths``) with a flamegraph export (:func:`folded_stacks`); a
  query's timeline is its lifecycle trace, operators and kernels grafted
  in by :func:`span_from_profile`.

``repro.obs.introspect`` (system tables + EXPLAIN ANALYZE) depends on the
storage/mpp layers and is therefore *not* imported here; import it
directly.
"""

from repro.obs.events import ClusterEventLog, Event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.monitor import (
    Alert,
    AlertRule,
    FlightRecorder,
    HealthMonitor,
    MetricsHistory,
    default_rules,
    sql_fingerprint,
)
from repro.obs.profiler import ContinuousProfiler, folded_stacks
from repro.obs.trace import (
    NULL_TRACER,
    SimClock,
    Span,
    Tracer,
    span_from_profile,
)

__all__ = [
    "Alert",
    "AlertRule",
    "ClusterEventLog",
    "ContinuousProfiler",
    "Counter",
    "Event",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "MetricFamily",
    "MetricsHistory",
    "MetricsRegistry",
    "NULL_TRACER",
    "SimClock",
    "Span",
    "Tracer",
    "default_rules",
    "folded_stacks",
    "quantile_from_buckets",
    "span_from_profile",
    "sql_fingerprint",
]
