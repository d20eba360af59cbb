"""Process-wide metrics registry: counters, gauges, histograms.

Every simulator subsystem (HDFS, MPI fabric, buffer pools, exchanges,
transactions, YARN, the executor) charges its accounting through one
:class:`MetricsRegistry` instead of keeping ad-hoc attribute counters.
Series are label-keyed (``hdfs_read_bytes_total{node="node1",
mode="short_circuit"}``), snapshot-able, resettable, and renderable in the
Prometheus text exposition format -- so a benchmark can diff two
snapshots, a test can golden-compare the exposition, and every future
performance PR reports through the same names.

The per-object counters (``DataNode.bytes_read_local``,
``BufferPool.hits``, ``EpochKeyedCache.hits``,
``TransactionManager.commits``...) are read-only *views* over registry
series: the registry is the only place a count is kept.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ReproError

LabelKey = Tuple[str, ...]

#: default histogram buckets (bytes/seconds both fit a wide geometric grid)
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)


def _format_value(v: float) -> str:
    """Prometheus renders integers without a trailing ``.0``."""
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _escape_label_value(v: str) -> str:
    """Prometheus label-value escaping: backslash, double-quote, newline."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_labels(pairs: Iterable[Tuple[str, object]]) -> str:
    """Prometheus label block ``{name="value",...}``; empty without pairs."""
    body = ",".join(f'{n}="{_escape_label_value(str(v))}"' for n, v in pairs)
    return "{" + body + "}" if body else ""


def labels_text(pairs: Iterable[Tuple[str, str]]) -> str:
    """``name=value,...``: the ``labels`` column of ``vh$metrics`` and
    ``vh$metrics_history``."""
    return ",".join(f"{k}={v}" for k, v in pairs)


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (quotes stay literal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def quantile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                          total: float, q: float) -> float:
    """Interpolated q-quantile from per-bucket (non-cumulative) counts.

    Prometheus ``histogram_quantile`` semantics: linear interpolation
    inside the bucket holding the target rank, observations above the
    highest finite bound collapse to that bound. ``counts[i]`` holds the
    observations with ``bounds[i-1] < value <= bounds[i]``.
    """
    if total <= 0 or not bounds:
        return 0.0
    rank = min(max(q, 0.0), 1.0) * total
    cum = 0.0
    for i, n in enumerate(counts):
        if n <= 0:
            continue
        cum += n
        if cum >= rank:
            lower = bounds[i - 1] if i > 0 else 0.0
            frac = (rank - (cum - n)) / n
            return lower + (bounds[i] - lower) * frac
    # the rank fell in the +Inf bucket: the best bound we can report
    return float(bounds[-1])


class MetricFamily:
    """One named metric with a fixed label schema and many series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        #: label-value tuple -> a number (a histogram: its bucket state)
        self._series: Dict[LabelKey, object] = {}

    # -- label plumbing ------------------------------------------------------

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        names = self.label_names
        if len(labels) == len(names):
            # as many labels as names, and every name among them: the same
            # names (no sets built: this runs on every inc)
            try:
                return tuple([str(labels[n]) for n in names])
            except KeyError:
                pass
        raise ReproError(
            f"metric {self.name} takes labels {self.label_names}, "
            f"got {tuple(sorted(labels))}"
        )

    def _render_labels(self, key: LabelKey,
                       extra: Sequence[Tuple[str, str]] = ()) -> str:
        return render_labels([*zip(self.label_names, key), *extra])

    # -- interface every family implements -----------------------------------

    def clear(self) -> None:
        self._series.clear()

    def snapshot(self) -> Dict[LabelKey, object]:
        raise NotImplementedError

    def copy(self) -> Dict[LabelKey, object]:
        """The series as the family keys them: a number per label-value
        tuple, ``(count, sum)`` for a histogram."""
        raise NotImplementedError

    def render(self) -> List[str]:
        raise NotImplementedError


class _ScalarFamily(MetricFamily):
    """A family whose series are plain numbers (counters and gauges)."""

    def get(self, **labels) -> float:
        return self._series.get(self._key(labels), 0)

    def total(self) -> float:
        return sum(self._series.values())

    def copy(self) -> Dict[LabelKey, object]:
        return dict(self._series)

    snapshot = copy

    def render(self) -> List[str]:
        return [
            f"{self.name}{self._render_labels(key)} {_format_value(v)}"
            for key, v in sorted(self._series.items())
        ]


class Counter(_ScalarFamily):
    """Monotonically increasing (resettable) label-keyed counter."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> float:
        return self.add(self._key(labels), amount)

    def add(self, key: LabelKey, amount: float = 1) -> float:
        """:meth:`inc` by the label-value tuple itself: no label dict."""
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        value = self._series.get(key, 0) + amount
        self._series[key] = value
        return value


class Gauge(_ScalarFamily):
    """Point-in-time value; ``sticky`` gauges describe live state (bytes
    stored, running containers) and survive :meth:`MetricsRegistry.reset`,
    non-sticky ones are statistics (high-water marks) and do not."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (), sticky: bool = False):
        super().__init__(name, help, labels)
        self.sticky = sticky

    def set(self, value: float, **labels) -> None:
        self._series[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels) -> None:
        """Record a high-water mark: keep the largest value ever set."""
        key = self._key(labels)
        if value > self._series.get(key, float("-inf")):
            self._series[key] = value


class _HistState:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0


class Histogram(MetricFamily):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labels)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = _HistState(len(self.buckets))
        i = bisect.bisect_left(self.buckets, value)
        if i < len(self.buckets):
            state.bucket_counts[i] += 1
        state.count += 1
        state.sum += value

    def get(self, **labels) -> Dict[str, object]:
        state = self._series.get(self._key(labels))
        return self._read(state or _HistState(len(self.buckets)))

    def _read(self, state: _HistState) -> Dict[str, object]:
        """One series' count, sum and cumulative bucket counts."""
        cumulative = itertools.accumulate(state.bucket_counts)
        return {"count": state.count, "sum": state.sum,
                "buckets": dict(zip(self.buckets, cumulative))}

    def quantile(self, q: float, **labels) -> float:
        """Interpolated ``q``-quantile (0..1) from the bucket counts.

        With labels, reads that one series; called bare on a labelled
        family it aggregates the buckets of every series. Returns 0.0
        for an empty histogram.
        """
        if labels or not self.label_names:
            state = self._series.get(self._key(labels))
            if state is None or state.count == 0:
                return 0.0
            return quantile_from_buckets(
                self.buckets, state.bucket_counts, state.count, q)
        return quantile_from_buckets(self.buckets, *self.totals(), q)

    def totals(self) -> Tuple[List[int], int]:
        """Per-bucket counts and observation count over every series."""
        counts = [0] * len(self.buckets)
        total = 0
        for state in self._series.values():
            total += state.count
            for i, n in enumerate(state.bucket_counts):
                counts[i] += n
        return counts, total

    def snapshot(self) -> Dict[LabelKey, object]:
        return {key: self._read(state) for key, state in self._series.items()}

    def copy(self) -> Dict[LabelKey, object]:
        return {key: (state.count, state.sum)
                for key, state in self._series.items()}

    def render(self) -> List[str]:
        lines = []
        for key, state in sorted(self._series.items()):
            data = self._read(state)
            for le, n in data["buckets"].items():
                labels = self._render_labels(key, [("le", _format_value(le))])
                lines.append(f"{self.name}_bucket{labels} {n}")
            labels = self._render_labels(key, [("le", "+Inf")])
            lines.append(f"{self.name}_bucket{labels} {data['count']}")
            plain = self._render_labels(key)
            lines.append(
                f"{self.name}_sum{plain} {_format_value(data['sum'])}"
            )
            lines.append(f"{self.name}_count{plain} {data['count']}")
        return lines


#: a registry copy: each family's series as :meth:`MetricFamily.copy` has it
RegistryCopy = Dict[MetricFamily, Dict[LabelKey, object]]


def flatten(copy: RegistryCopy) -> List[tuple]:
    """``(series, kind, label pairs, value)`` rows of a registry copy,
    ordered by series name, then labels; the one place a histogram's
    ``(count, sum)`` becomes its ``_count`` and ``_sum`` series."""
    parts = []
    for family, series in copy.items():
        if family.kind == "histogram":
            parts += [(family.name + "_count", family, series, 0),
                      (family.name + "_sum", family, series, 1)]
        else:
            parts.append((family.name, family, series, None))
    return [(name, family.kind, tuple(zip(family.label_names, key)),
             float(series[key] if part is None else series[key][part]))
            for name, family, series, part in sorted(parts, key=lambda p: p[0])
            for key in sorted(series)]


class MetricsRegistry:
    """All metric families of one deployment.

    A :class:`~repro.cluster.VectorHCluster` owns one registry shared by
    every subsystem it wires together; standalone components (a bare
    ``HdfsCluster`` in a unit test) default to a private registry so
    instances never bleed counts into each other.
    """

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}

    # -- registration --------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Sequence[str], **kwargs) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = cls(name, help, labels, **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls):
            raise ReproError(
                f"metric {name} already registered as {family.kind}"
            )
        if family.label_names != tuple(labels):
            raise ReproError(
                f"metric {name} registered with labels "
                f"{family.label_names}, requested {tuple(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = (),
              sticky: bool = False) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels, sticky=sticky)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    # -- snapshots & reset ---------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[LabelKey, object]]:
        """An isolated deep copy of every series' current value."""
        return {name: family.snapshot()
                for name, family in sorted(self._families.items())}

    def copy(self, skip: Iterable[str] = ()) -> RegistryCopy:
        """Every family's :meth:`MetricFamily.copy` but those named in
        ``skip``: what a history sample and ``vh$metrics`` hold."""
        return {family: family.copy()
                for name, family in self._families.items()
                if name not in skip}

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Convenience: one series' scalar value (0 when absent)."""
        family = self._families.get(name)
        if family is None:
            return default
        return family.get(**labels)

    def reset(self, prefix: str = "") -> None:
        """Drop the series of counters, histograms and non-sticky gauges
        whose family name starts with ``prefix``; families stay
        registered. Sticky gauges describe live state and survive."""
        for name, family in self._families.items():
            if not name.startswith(prefix):
                continue
            if isinstance(family, Gauge) and family.sticky:
                continue
            family.clear()

    # -- exposition ----------------------------------------------------------

    def render(self, prefixes: Iterable[str] = ("",)) -> str:
        """Prometheus text exposition of every matching family."""
        lines: List[str] = []
        for family in self.families():
            if not any(family.name.startswith(p) for p in prefixes):
                continue
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")
