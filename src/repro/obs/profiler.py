"""Continuous operator profiler with kernel-level hot-path attribution.

The engine side lives in :mod:`repro.engine.profile`: every operator's
:class:`ProfileNode` carries batches, its pulls' own seconds and named
:class:`KernelStat` entries recorded by the frame stack. This module is
the aggregation and export layer on top of those trees:

* :class:`ContinuousProfiler` walks every finished query's profile tree
  once and charges it, per operator kind, into the MetricsRegistry's
  ``operator_*`` / ``kernel_*`` families (rows in/out, batches, network
  bytes, wall seconds, per-kernel accounting) -- the registry is its
  only store. ``vh$operator_stats`` and ``vh$hot_paths`` render straight
  from those families; the same walk names the operator kind that
  spent most of the query's wall (the ``vh$queries`` culprit column).
* :func:`folded_stacks` exports one query's profile as a flamegraph
  folded-stack file.

Two kinds of number come out: counts -- rows, batches, calls, bytes --
are bit-identical across same-seed runs, which is what the trajectory
gate and the twin-run tests rely on; seconds are measured wall.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence

from repro.engine.profile import KernelStat, ProfileNode
from repro.obs.metrics import MetricsRegistry


def walk(node: ProfileNode) -> Iterator[ProfileNode]:
    yield node
    for child in node.children:
        yield from walk(child)


class ContinuousProfiler:
    """Always-on charging of query profiles into per-kind registry series."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry or MetricsRegistry()

        def counter(name: str, help: str, *more_labels: str):
            return registry.counter(name, help,
                                    labels=("operator",) + more_labels)

        self._queries = counter("operator_queries_total",
                                "Queries each operator kind ran in")
        self._instances = counter("operator_instances_total",
                                  "Streams that ran each operator kind")
        self._rows = counter("operator_rows_total",
                             "Tuples through each operator kind", "direction")
        self._batches = counter("operator_batches_total",
                                "Vectors yielded by each operator kind")
        self._net = counter("operator_net_bytes_total",
                            "Bytes each operator kind put on the network")
        self._wall = counter(
            "operator_wall_seconds_total", "Wall seconds each operator "
            "kind spent, its kernels included (nondeterministic)")
        self._own = counter(
            "operator_own_seconds_total", "Wall seconds inside each "
            "operator kind's pulls, outside its kernels (nondeterministic)")
        self._kcalls = counter("kernel_calls_total", "Kernel invocations",
                               "kernel")
        self._krows = counter("kernel_rows_total",
                              "Rows through each kernel", "kernel")
        self._kbytes = counter("kernel_bytes_total",
                               "Bytes through each kernel", "kernel")
        self._kwall = counter(
            "kernel_wall_seconds_total",
            "Kernel own wall seconds (nondeterministic)", "kernel")

    # ------------------------------------------------------------ ingest

    def observe_query(self, result) -> None:
        """Charge one finished query's profile trees -- the one walk a
        finished tree gets -- and leave ``(kind, share)`` of the operator
        kind that spent most of its wall (``node.time``, kernels
        included) on ``result.dominant``."""
        per_kind: Dict[str, float] = {}
        for root in result.profiles:
            for node in walk(root):
                kind = node.kind
                if kind not in per_kind:
                    per_kind[kind] = 0.0
                    self._queries.inc(operator=kind)
                per_kind[kind] += self._charge(kind, node)
        total = sum(per_kind.values())
        if total > 0:
            kind, wall = min(per_kind.items(), key=lambda kv: (-kv[1], kv[0]))
            result.dominant = (kind, wall / total)

    def _charge(self, kind: str, node: ProfileNode) -> float:
        """Charge one node; returns the wall it charged."""
        self._instances.inc(max(1, len(node.stream_times)), operator=kind)
        if node.tuples_in:
            self._rows.inc(node.tuples_in, operator=kind, direction="in")
        if node.tuples_out:
            self._rows.inc(node.tuples_out, operator=kind, direction="out")
        if node.batches:
            self._batches.inc(node.batches, operator=kind)
        if node.net_bytes:
            self._net.inc(node.net_bytes, operator=kind)
        wall = node.time
        self._wall.inc(wall, operator=kind)
        self._own.inc(node.own_seconds, operator=kind)
        for name, stat in node.kernels.items():
            self._kcalls.inc(stat.calls, operator=kind, kernel=name)
            if stat.rows:
                self._krows.inc(stat.rows, operator=kind, kernel=name)
            if stat.bytes:
                self._kbytes.inc(stat.bytes, operator=kind, kernel=name)
            if stat.seconds:
                self._kwall.inc(stat.seconds, operator=kind, kernel=name)
        return wall

    # ----------------------------------------------------------- export

    def rows(self) -> List[tuple]:
        """``vh$operator_stats`` rows, deterministic columns first."""
        out = []
        for (kind,), instances in sorted(self._instances.snapshot().items()):
            rows_out = self._rows.get(operator=kind, direction="out")
            wall = self._wall.get(operator=kind)
            out.append((
                kind, self._queries.get(operator=kind), instances,
                self._rows.get(operator=kind, direction="in"), rows_out,
                self._batches.get(operator=kind), self._net.get(operator=kind),
                wall, rows_out / wall if wall > 0 else 0.0,
            ))
        return out

    def kernels(self) -> Dict[str, Dict[str, KernelStat]]:
        """What the ``kernel_*`` families hold, per operator kind."""
        out: Dict[str, Dict[str, KernelStat]] = {}
        for (kind, name), calls in sorted(self._kcalls.snapshot().items()):
            labels = {"operator": kind, "kernel": name}
            out.setdefault(kind, {})[name] = KernelStat(
                calls, self._kwall.get(**labels),
                self._krows.get(**labels), self._kbytes.get(**labels))
        return out

    def hot_paths(self) -> List[tuple]:
        """Every (operator, kernel) pair, ranked by measured wall.

        An ``(self)`` pseudo-kernel carries what each operator's pulls
        spent outside every named kernel, so the view always covers 100%
        of the wall; ``share`` is each row's fraction of it.
        """
        entries: List[tuple] = []
        kernels = self.kernels()
        for (kind, _q, _i, _in, rows_out, batches, _net, _wall,
                _rate) in self.rows():
            for name, stat in kernels.get(kind, {}).items():
                entries.append((kind, name, stat.calls, stat.rows,
                                stat.bytes, stat.seconds))
            entries.append((kind, "(self)", batches, rows_out, 0,
                            self._own.get(operator=kind)))
        total = sum(e[5] for e in entries) or 1.0
        entries.sort(key=lambda e: (-e[5], e[0], e[1]))
        return [entry + (entry[5] / total,) for entry in entries]

    def report(self, k: int = 20) -> str:
        """Human-readable top-k hot paths (the ``slow_report`` companion)."""
        lines = [f"{'operator':<16} {'kernel':<20} {'calls':>10} "
                 f"{'rows':>12} {'wall s':>10} {'share':>7}"]
        for (op, name, calls, rows, _nbytes, wall,
                share) in self.hot_paths()[:k]:
            lines.append(f"{op:<16} {name:<20} {calls:>10,} {rows:>12,} "
                         f"{wall:>10.4f} {100 * share:>6.2f}%")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-query export: folded stacks
# ---------------------------------------------------------------------------

def _frame(label: str) -> str:
    """Sanitize a label into a folded-stack frame token."""
    return re.sub(r"\s+", "_", label).replace(";", ",")


def folded_stacks(profiles: Sequence[ProfileNode]) -> str:
    """Render profile trees as folded stacks (``stack count`` per line).

    Counts are integer microseconds of *own* wall time; named kernels
    hang off their operator as ``kernel:<name>`` leaf frames. Feed the
    output to any flamegraph renderer (e.g. speedscope, inferno).
    """
    lines: List[str] = []

    def emit(node: ProfileNode, prefix: str) -> None:
        path = (prefix + ";" if prefix else "") + _frame(node.label)
        for name in sorted(node.kernels):
            usec = int(round(node.kernels[name].seconds * 1e6))
            lines.append(f"{path};kernel:{_frame(name)} {max(1, usec)}")
        own_usec = int(round(node.own_seconds * 1e6))
        lines.append(f"{path} {max(1, own_usec)}")
        for child in node.children:
            emit(child, path)

    for root in profiles:  # an executed plan has one tree
        emit(root, "")
    return "\n".join(lines) + "\n"
