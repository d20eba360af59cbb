"""The flight recorder: metric time-series, alert rules, query log.

Point-in-time snapshots (``vh$metrics``, a Prometheus scrape) show *now*;
long-running clusters degrade *over time* -- sustained admission
pressure, PDT memory growth, chaos-induced degradation. This module adds
the time dimension with three cooperating pieces, all driven from the
workload manager's round hook on the shared :class:`~repro.obs.SimClock`
(so everything here is deterministic whenever the workload is):

* :class:`MetricsHistory` -- a recorder: samples **every** registry
  series into a bounded ring of whole-registry samples (configurable
  cadence and retention). On overflow the ring *compacts* instead of
  dropping: pairs of adjacent samples merge (``last`` for counters,
  ``max`` for gauges) and the effective cadence doubles -- old history
  gets coarser, never lost. Queryable as ``vh$metrics_history``;
  exportable as JSON. Nothing decides on it.

* :class:`HealthMonitor` -- declarative :class:`AlertRule`\\ s
  (threshold-over-window on gauges, counter *rates*, histogram
  *quantiles*) evaluated against the registry at every sample on the
  sim clock; a windowed rule keeps its own trailing window. Alerts raise
  after a breach is sustained ``for_seconds`` and clear after recovery,
  emitting ``alert.raised`` / ``alert.cleared`` cluster events; the full
  raise/clear sequence is visible in ``vh$alerts`` and is bit-identical
  across same-seed runs.

* the **query log** -- not a store of its own: when a managed query
  reaches a terminal state (finished, failed, cancelled)
  :meth:`FlightRecorder.record_query` folds its SQL fingerprint,
  plan-fragment signature, rows, peak memory, wire bytes, replans, max
  q-error and dominant operator into the workload manager's one
  :class:`~repro.workload.manager.QueryRecord`, which then lives in the
  manager's bounded ring. ``vh$queries``, :meth:`slow_report` and
  :meth:`fingerprint_stats` are projections of that ring; it is *not*
  registry-backed, so it survives ``metrics().reset()``.

:class:`FlightRecorder` is the facade a
:class:`~repro.cluster.VectorHCluster` owns: it publishes a few derived
gauges (per-node live workload memory, minimum replication degree) right
before each sample so rules can watch them.

Import note: like ``repro.obs.events`` this module must stay free of
storage/mpp imports, so ``repro.obs`` can export it eagerly.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    RegistryCopy,
    _format_value,
    flatten,
    labels_text,
    render_labels,
    quantile_from_buckets,
)


# ---------------------------------------------------------------------------
# MetricsHistory: the bounded flight-recorder ring
# ---------------------------------------------------------------------------

@dataclass
class HistorySample:
    """One whole-registry sample at one simulated instant: a
    :meth:`MetricsRegistry.copy`, read through :func:`flatten`."""

    seq: int
    sim_time: float
    values: RegistryCopy


_AGGREGATES = {"sum": sum, "max": max, "min": min,
               "avg": lambda values: sum(values) / len(values)}


def _aggregate(values: List[float], agg: str) -> Optional[float]:
    """Fold one family's series values into one (None without any)."""
    if agg not in _AGGREGATES:
        raise ReproError(f"unknown aggregation {agg!r}")
    return float(_AGGREGATES[agg](values)) if values else None


#: registry families measured on the *wall* clock, not the simulated
#: one: their values vary run-to-run even under workload_deterministic,
#: so the history skips them to keep same-seed samples bit-identical
WALL_CLOCK_FAMILIES = frozenset({
    "executor_stream_seconds",
    "operator_wall_seconds_total",
    "operator_own_seconds_total",
    "kernel_wall_seconds_total",
})


def _merge(old: RegistryCopy, new: RegistryCopy) -> RegistryCopy:
    """Two adjacent samples as one: the newer value of a counter (and of
    a histogram's count and sum), the larger of a gauge, and the series
    only the older one holds."""
    merged = dict(new)
    for family, before in old.items():
        after = new.get(family, {})
        if before == after:  # most do not move; no key tuple is re-hashed
            continue
        if family.kind == "gauge":
            series = {**before, **after}
            for key in before.keys() & after.keys():
                series[key] = max(before[key], after[key])
            merged[family] = series
        elif not after.keys() >= before.keys():
            merged[family] = {**before, **after}
    return merged


class MetricsHistory:
    """Ring buffer of whole-registry samples with compacting overflow.

    ``cadence`` is the simulated-seconds spacing between samples
    (``0`` = sample every workload round). ``retention`` bounds the
    sample count: on overflow, adjacent sample pairs merge and the
    effective cadence doubles, so memory is bounded while the full time
    range stays covered at decaying resolution. A merged pair keeps the
    *last* value of a counter (and of a histogram's count and sum) and
    the *max* of a gauge -- watermarks survive. The wall-clock-measured
    families (:data:`WALL_CLOCK_FAMILIES`) are never sampled; they would
    break same-seed bit-identity.
    """

    def __init__(self, registry: MetricsRegistry, sim_clock,
                 cadence: float = 1e-4, retention: int = 256):
        self.registry = registry
        self.sim_clock = sim_clock
        self.cadence = float(cadence)
        self.retention = max(4, int(retention))
        self._rounds_since = 0
        self.samples: List[HistorySample] = []
        self.compactions = 0
        self._seq = itertools.count()

    @property
    def interval(self) -> float:
        """Current sample spacing; doubles on every compaction."""
        return self.cadence * 2 ** self.compactions

    # -- sampling ------------------------------------------------------------

    def due(self) -> bool:
        if not self.samples:
            return True
        if self.cadence > 0:
            last = self.samples[-1].sim_time
            return self.sim_clock.seconds - last >= self.interval - 1e-12
        return self._rounds_since >= 2 ** self.compactions

    def note_round(self) -> None:
        self._rounds_since += 1

    def sample(self) -> HistorySample:
        """Record one sample of every registry series, now."""
        sample = HistorySample(next(self._seq), self.sim_clock.seconds,
                               self.registry.copy(skip=WALL_CLOCK_FAMILIES))
        self.samples.append(sample)
        self._rounds_since = 0
        if len(self.samples) > self.retention:
            self._compact()
        return sample

    def _compact(self) -> None:
        """Merge adjacent sample pairs; effective cadence doubles."""
        samples = self.samples
        merged = [HistorySample(b.seq, b.sim_time, _merge(a.values, b.values))
                  for a, b in zip(samples[0::2], samples[1::2])]
        if len(samples) % 2:
            merged.append(samples[-1])
        self.samples = merged
        self.compactions += 1

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def series(self, name: str,
               labels: Optional[Dict[str, object]] = None,
               agg: str = "sum") -> List[Tuple[float, float]]:
        """One series name's time series: ``[(sim_time, value), ...]``.

        With ``labels`` only the exactly-matching series contributes;
        otherwise every series of the name is aggregated per sample.
        """
        out: List[Tuple[float, float]] = []
        want = (tuple(sorted((k, str(v)) for k, v in labels.items()))
                if labels is not None else None)
        for sample in self.samples:
            value = _aggregate(
                [v for n, _kind, pairs, v in flatten(sample.values)
                 if n == name and (want is None
                                   or tuple(sorted(pairs)) == want)], agg)
            if value is not None:
                out.append((sample.sim_time, value))
        return out

    def rows(self) -> List[tuple]:
        """``vh$metrics_history`` rows: (sample, sim_time, metric, labels,
        value), sorted within each sample for determinism."""
        return [(sample.seq, sample.sim_time, name, labels_text(pairs), value)
                for sample in self.samples
                for name, _kind, pairs, value in flatten(sample.values)]

    # -- exports -------------------------------------------------------------

    def render_latest(self) -> str:
        """Prometheus-style exposition of the newest sample."""
        if not self.samples:
            return ""
        sample = self.samples[-1]
        lines = [f"# metrics_history sample={sample.seq} "
                 f"sim_time={sample.sim_time!r}"]
        lines += [f"{name}{render_labels(pairs)} {_format_value(value)}"
                  for name, _kind, pairs, value in flatten(sample.values)]
        return "\n".join(lines) + "\n"

    def export_json(self) -> dict:
        return {
            "cadence_s": self.cadence,
            "interval_s": self.interval,
            "retention": self.retention,
            "compactions": self.compactions,
            "samples": [
                {
                    "seq": s.seq,
                    "sim_time": s.sim_time,
                    "values": {
                        (f"{name}{{{labels_text(pairs)}}}" if pairs
                         else name): value
                        for name, _kind, pairs, value in flatten(s.values)
                    },
                }
                for s in self.samples
            ],
        }


# ---------------------------------------------------------------------------
# HealthMonitor: declarative threshold-over-window alert rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlertRule:
    """One declarative health rule, evaluated at every history sample.

    ``kind`` selects how the watched value is computed from the
    registry:

    * ``gauge`` -- the metric's current value, ``agg``\\ regated across
      its label series (``max``/``min``/``sum``/``avg``);
    * ``rate`` -- the counter's increase per simulated second over the
      trailing ``window_s`` (0 = since the rule's first evaluation);
    * ``quantile`` -- the ``q``-quantile of a histogram, interpolated
      from bucket counts over the trailing ``window_s`` (0 = ever).

    The alert raises once ``value <op> threshold`` has held for
    ``for_seconds`` of simulated time, and clears once the breach has
    been gone for ``clear_for_seconds`` (both default 0: act on the
    first sample that crosses).
    """

    name: str
    metric: str
    threshold: float
    op: str = ">"
    kind: str = "gauge"
    agg: str = "max"
    q: float = 0.95
    window_s: float = 0.0
    for_seconds: float = 0.0
    clear_for_seconds: float = 0.0
    help: str = ""

    def breached(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        raise ReproError(f"unknown alert operator {self.op!r}")


@dataclass
class Alert:
    """One alert instance: raised once, possibly cleared later."""

    seq: int
    rule: str
    metric: str
    value: float  # watched value at raise time
    threshold: float
    raised_sim: float
    cleared_sim: Optional[float] = None
    peak: float = 0.0

    @property
    def state(self) -> str:
        return "cleared" if self.cleared_sim is not None else "firing"

    def key(self) -> tuple:
        """Wall-time-free identity for determinism comparisons."""
        return (self.rule, self.metric, round(self.raised_sim, 9),
                None if self.cleared_sim is None
                else round(self.cleared_sim, 9),
                round(self.value, 9), round(self.peak, 9))


class _RuleState:
    __slots__ = ("rule", "breach_since", "ok_since", "active", "evaluations")

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.breach_since: Optional[float] = None
        self.ok_since: Optional[float] = None
        self.active: Optional[Alert] = None
        self.evaluations = 0


class HealthMonitor:
    """Evaluates alert rules on the registry; owns the alert history."""

    def __init__(self, cluster, rules: Sequence[AlertRule]):
        self.cluster = cluster
        self.rules: List[AlertRule] = list(rules)
        self._states: Dict[str, _RuleState] = {
            r.name: _RuleState(r) for r in self.rules}
        self.alerts: List[Alert] = []
        self._seq = itertools.count()
        #: per-rule trailing window of (sim_time, what the rule read)
        self._windows: Dict[str, List[tuple]] = {}
        registry = cluster.registry
        self._raised = registry.counter(
            "alerts_raised_total", "Alerts raised, by rule",
            labels=("rule",))
        self._cleared = registry.counter(
            "alerts_cleared_total", "Alerts cleared, by rule",
            labels=("rule",))
        self._firing = registry.gauge(
            "alerts_firing", "Alerts currently firing", sticky=True)
        self._firing.set(0)

    # -- bookkeeping ---------------------------------------------------------

    def add_rule(self, rule: AlertRule) -> None:
        if rule.name in self._states:
            raise ReproError(f"alert rule {rule.name} already registered")
        self.rules.append(rule)
        self._states[rule.name] = _RuleState(rule)

    def evaluations(self, name: Optional[str] = None) -> int:
        if name is not None:
            return self._states[name].evaluations
        return sum(s.evaluations for s in self._states.values())

    def firing(self) -> List[Alert]:
        return [a for a in self.alerts if a.cleared_sim is None]

    def sequence(self) -> List[tuple]:
        """Deterministic raise/clear history (for same-seed comparisons)."""
        return [a.key() for a in self.alerts]

    def rows(self) -> List[tuple]:
        """``vh$alerts`` rows (``cleared_sim`` is -1 while firing)."""
        return [
            (a.seq, a.rule, a.metric, a.state, float(a.value),
             float(a.threshold), a.raised_sim,
             -1.0 if a.cleared_sim is None else a.cleared_sim,
             float(a.peak))
            for a in self.alerts
        ]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """Run every rule against the registry at sim time ``now``."""
        for rule in self.rules:
            value = self._value(rule, now)
            if value is None:
                continue
            state = self._states[rule.name]
            state.evaluations += 1
            if rule.breached(value):
                state.ok_since = None
                if state.breach_since is None:
                    state.breach_since = now
                if state.active is not None:
                    state.active.peak = max(state.active.peak, value)
                elif now - state.breach_since >= rule.for_seconds:
                    self._raise(state, value, now)
            else:
                state.breach_since = None
                if state.active is None:
                    state.ok_since = None
                    continue
                if state.ok_since is None:
                    state.ok_since = now
                if now - state.ok_since >= rule.clear_for_seconds:
                    self._clear(state, now)

    def _value(self, rule: AlertRule, now: float) -> Optional[float]:
        family = self.cluster.registry.get(rule.metric)
        if rule.kind == "quantile":
            return self._quantile(rule, family, now)
        if rule.kind not in ("gauge", "rate"):
            raise ReproError(f"unknown alert rule kind {rule.kind!r}")
        if family is None or isinstance(family, Histogram):
            return None
        if rule.kind == "gauge":
            return _aggregate(list(family.snapshot().values()), rule.agg)
        total = family.total()
        then, base = self._base(rule, now, total)
        return (total - base) / (now - then) if now > then else None

    def _base(self, rule: AlertRule, now: float, point) -> tuple:
        """Record what ``rule`` read at ``now`` in its trailing window and
        return the window's base ``(sim_time, point)``: the newest entry
        at least ``window_s`` old (the oldest while none is), or with
        ``window_s`` 0 the rule's first evaluation."""
        window = self._windows.setdefault(rule.name, [])
        if not window or rule.window_s > 0:
            window.append((now, point))
            while len(window) > 1 and window[1][0] <= now - rule.window_s:
                window.pop(0)
        return window[0]

    def _quantile(self, rule: AlertRule, family,
                  now: float) -> Optional[float]:
        if not isinstance(family, Histogram):
            return None
        counts, total = family.totals()
        if rule.window_s <= 0:
            if total == 0:
                return None
            return quantile_from_buckets(family.buckets, counts, total,
                                         rule.q)
        _, (base_counts, base_total) = self._base(rule, now, (counts, total))
        d_total = total - base_total
        if d_total <= 0:
            return None
        d_counts = [c - b for c, b in zip(counts, base_counts)]
        return quantile_from_buckets(family.buckets, d_counts, d_total,
                                     rule.q)

    # -- transitions ---------------------------------------------------------

    def _emit(self, kind: str, **attrs) -> None:
        self.cluster.events.emit("monitor", kind, **attrs)

    def _raise(self, state: _RuleState, value: float, now: float) -> None:
        alert = Alert(seq=next(self._seq), rule=state.rule.name,
                      metric=state.rule.metric, value=value,
                      threshold=state.rule.threshold, raised_sim=now,
                      peak=value)
        state.active = alert
        self.alerts.append(alert)
        self._raised.inc(rule=state.rule.name)
        self._firing.set(len(self.firing()))
        self._emit("alert.raised", rule=state.rule.name,
                   metric=state.rule.metric, value=round(value, 9),
                   threshold=state.rule.threshold)

    def _clear(self, state: _RuleState, now: float) -> None:
        alert = state.active
        alert.cleared_sim = now
        state.active = None
        state.ok_since = None
        self._cleared.inc(rule=state.rule.name)
        self._firing.set(len(self.firing()))
        self._emit("alert.cleared", rule=state.rule.name,
                   metric=state.rule.metric,
                   after=round(now - alert.raised_sim, 9),
                   peak=round(alert.peak, 9))


def default_rules(cluster) -> List[AlertRule]:
    """The stock rule set. Thresholds are constants; what follows the
    cluster is its shape (replication degree, admission memory budget).
    Anything else is a rule of your own: ``FlightRecorder(rules=...)``
    or ``monitor.health.add_rule``."""
    config = cluster.config
    rules = [
        AlertRule(
            "admission_backlog", "admission_queue_depth", threshold=1.0,
            op=">=", kind="gauge", agg="sum",
            help="queries waiting for core slots or memory budget"),
        AlertRule(
            "query_wait_p95", "query_wait_seconds", threshold=0.25,
            op=">", kind="quantile", q=0.95,
            help="p95 simulated admission wait"),
        AlertRule(
            "replication_degraded", "cluster_replication_min_degree",
            threshold=float(min(config.replication,
                                len(cluster.workers))),
            op="<", kind="gauge", agg="min",
            help="some partition file has lost replicas"),
    ]
    if config.workload_memory_budget_mb:
        rules.append(AlertRule(
            "memory_watermark", "workload_memory_bytes",
            threshold=0.9 * config.workload_memory_budget_mb * 1024 * 1024,
            op=">", kind="gauge", agg="max",
            help="a node's live query memory nears the admission budget"))
    rules.append(AlertRule(
        "tenant_quota_saturated", "tenant_quota_saturation",
        threshold=1.0, op=">=", kind="gauge", agg="max",
        help="a tenant's admission backlog meets or exceeds its "
             "concurrency quota"))
    return rules


# ---------------------------------------------------------------------------
# Statement fingerprints
# ---------------------------------------------------------------------------

_SQL_STRINGS = re.compile(r"'[^']*'")
_SQL_NUMBERS = re.compile(r"\b\d+(?:\.\d+)?\b")


def sql_fingerprint(statement: str) -> str:
    """Literal-insensitive statement identity (12 hex chars).

    Lowercases, replaces string and numeric literals with ``?`` and
    collapses whitespace, so the two Q6 variants of a parameter sweep
    share one fingerprint while Q1 and Q6 do not.
    """
    norm = _SQL_STRINGS.sub("?", statement.lower())
    norm = _SQL_NUMBERS.sub("?", norm)
    norm = " ".join(norm.split())
    return hashlib.sha1(norm.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# FlightRecorder: the facade the cluster owns
# ---------------------------------------------------------------------------

class FlightRecorder:
    """Sampler + alert engine + query-log reports, ticking on workload
    rounds."""

    def __init__(self, cluster, rules: Optional[Sequence[AlertRule]] = None):
        self.cluster = cluster
        registry = cluster.registry
        self.history = MetricsHistory(registry, cluster.sim_clock)
        self.health = HealthMonitor(
            cluster, default_rules(cluster) if rules is None else rules)
        self._g_mem = registry.gauge(
            "workload_memory_bytes",
            "Live per-node memory of admitted queries (sampled)",
            labels=("node",), sticky=True)
        self._g_repl = registry.gauge(
            "cluster_replication_min_degree",
            "Alive replicas of the worst-covered partition file",
            sticky=True)

    # -- the round hook ------------------------------------------------------

    def tick(self) -> None:
        """Round hook: sample + evaluate when the cadence says so."""
        self.history.note_round()
        if not self.history.due():
            return
        self.sample()

    def sample(self) -> HistorySample:
        """Force one sample + rule evaluation right now."""
        self._publish_derived()
        sample = self.history.sample()
        self.health.evaluate(sample.sim_time)
        return sample

    def _publish_derived(self) -> None:
        """Refresh the gauges that only exist as object state."""
        cluster = self.cluster
        for node, live in sorted(cluster.workload.meter.current.items()):
            self._g_mem.set(max(0, live), node=node)
        self._g_repl.set(cluster.placement.min_replication_degree())

    # -- query log -----------------------------------------------------------

    def record_query(self, record) -> None:
        """The terminal hook: fold what the query's plan and result say
        about it into the workload manager's record, as scalars -- the
        manager drops the plan and hands the result over afterwards."""
        result = record.result
        # after a mid-query re-plan the result carries the final plan
        qplan = result.qplan if result is not None else record.qplan
        ann = qplan.annotations.get(qplan.root)
        record.plan_signature = (getattr(ann, "signature", "")
                                 or qplan.root.describe())
        # programmatic submissions carry no SQL text: fingerprint the
        # normalized plan signature so distinct plans stay distinct. A
        # pre-computed fingerprint (prepared statements) wins outright,
        # so every execution of one template aggregates as one entry
        # whatever literals were bound.
        record.fingerprint = record.fingerprint or sql_fingerprint(
            record.statement or record.plan_signature)
        if result is None:
            return
        record.rows = result.batch.n
        record.peak_memory_bytes = result.peak_memory_bytes
        record.wire_bytes = result.network_bytes
        record.replans = result.replans
        record.max_qerror = result.max_qerror
        record.dominant_op, record.dominant_share = result.dominant

    def slow_report(self, n: int = 10) -> str:
        """The n slowest terminal queries by wall time, one line each."""
        worst = sorted(self.cluster.workload.terminal_records(),
                       key=lambda r: (-r.wall_s, r.query_id))
        lines = [f"{'query':>6} {'state':<9} {'wall':>10} "
                 f"{'wait':>10} {'rows':>8} {'peak mem':>10} {'q-err':>6} "
                 f"{'dominant':<18} {'tenant':<10} fingerprint"]
        for r in worst[:n]:
            dominant = (f"{r.dominant_op} {100 * r.dominant_share:.0f}%"
                        if r.dominant_op else "-")
            lines.append(
                f"{r.query_id:>6} {r.state:<9} {r.wall_s * 1e3:>8.3f}ms "
                f"{r.wait_sim * 1e3:>8.3f}ms "
                f"{r.rows:>8} {r.peak_memory_bytes:>10} "
                f"{r.max_qerror:>6.1f} {dominant:<18} "
                f"{r.tenant or '-':<10} {r.fingerprint}")
        return "\n".join(lines)

    def fingerprint_stats(self) -> Dict[str, dict]:
        """Per-fingerprint aggregates (the BENCH_query_log.json shape)."""
        out: Dict[str, dict] = {}
        for r in self.cluster.workload.terminal_records():
            entry = out.setdefault(r.fingerprint, {
                "count": 0, "wall_s": 0.0, "rows": 0,
                "retries": 0, "replans": 0, "max_qerror": 0.0,
                "statement": (r.statement or r.root_label)[:120],
            })
            entry["count"] += 1
            entry["wall_s"] += r.wall_s
            entry["rows"] += r.rows
            entry["retries"] += r.retries
            entry["replans"] += r.replans
            entry["max_qerror"] = max(entry["max_qerror"], r.max_qerror)
        return out
