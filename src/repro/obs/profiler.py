"""Continuous operator profiler with kernel-level hot-path attribution.

The engine side lives in :mod:`repro.engine.profile`: every operator's
:class:`ProfileNode` carries batches and named :class:`KernelStat` entries
recorded by the ambient ``kernel()`` context manager. This module is the
aggregation and export layer on top of those trees:

* :class:`ContinuousProfiler` folds every finished query's profile into
  cumulative per-operator-kind statistics (rows in/out, batches, wall
  self seconds, deterministic sim cost, per-kernel accounting) and
  charges them into the MetricsRegistry. ``vh$operator_stats`` and
  ``vh$hot_paths`` render straight from it.
* :func:`folded_stacks` / :func:`profile_chrome_trace` export one
  query's profile as a flamegraph folded-stack file and a Chrome-trace
  JSON (``chrome://tracing`` / Perfetto).
* :func:`dominant_operator` names the operator kind that dominates a
  query -- the ``vh$query_log`` culprit column.

Wall seconds are real (nondeterministic) measurements; everything else
-- rows, batches, calls, bytes, and the *sim cost* derived from them
with the BatchCostModel constants -- is bit-identical across same-seed
runs, which is what the trajectory gate and the twin-run tests rely on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.profile import KernelStat, ProfileNode
from repro.obs.metrics import MetricsRegistry

#: default row count of ``vh$hot_paths`` and the text report
HOT_PATHS_TOP_K = 20

#: deterministic cost constants, mirroring the scheduler's BatchCostModel
#: (``repro.engine.exchange``): one "pull" per batch/kernel call plus a
#: per-tuple term. Sim cost is the deterministic proxy for work.
SIM_PER_CALL = 2e-6
SIM_PER_ROW = 1e-7


def walk(node: ProfileNode) -> Iterator[ProfileNode]:
    yield node
    for child in node.children:
        yield from walk(child)


def node_sim_cost(node: ProfileNode) -> float:
    """Deterministic self cost of one operator node."""
    return SIM_PER_CALL * node.batches + SIM_PER_ROW * node.tuples_out


def kernel_sim_cost(stat: KernelStat) -> float:
    return SIM_PER_CALL * stat.calls + SIM_PER_ROW * stat.rows


@dataclass
class OperatorAgg:
    """Cumulative stats for one operator kind across observed queries."""

    queries: int = 0
    instances: int = 0
    rows_in: int = 0
    rows_out: int = 0
    batches: int = 0
    net_bytes: int = 0
    #: real self wall seconds (cum minus children), nondeterministic
    wall_seconds: float = 0.0
    #: deterministic cost derived from batches/rows
    sim_cost: float = 0.0
    kernels: Dict[str, KernelStat] = field(default_factory=dict)

    def kernel_stat(self, name: str) -> KernelStat:
        stat = self.kernels.get(name)
        if stat is None:
            stat = self.kernels[name] = KernelStat()
        return stat


class ContinuousProfiler:
    """Always-on aggregation of query profiles into per-kind stats."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.stats: Dict[str, OperatorAgg] = {}
        self.queries_observed = 0
        registry = registry or MetricsRegistry()
        self._rows = registry.counter(
            "operator_rows_total",
            "Tuples through each operator kind",
            labels=("operator", "direction"))
        self._batches = registry.counter(
            "operator_batches_total",
            "Vectors yielded by each operator kind", labels=("operator",))
        self._sim = registry.counter(
            "operator_sim_cost_seconds_total",
            "Deterministic sim cost per operator kind",
            labels=("operator",))
        self._wall = registry.counter(
            "operator_wall_seconds_total",
            "Self wall seconds per operator kind (nondeterministic)",
            labels=("operator",))
        self._kcalls = registry.counter(
            "kernel_calls_total", "Kernel invocations",
            labels=("operator", "kernel"))
        self._krows = registry.counter(
            "kernel_rows_total", "Rows through each kernel",
            labels=("operator", "kernel"))
        self._kbytes = registry.counter(
            "kernel_bytes_total", "Bytes through each kernel",
            labels=("operator", "kernel"))
        self._kwall = registry.counter(
            "kernel_wall_seconds_total",
            "Kernel self wall seconds (nondeterministic)",
            labels=("operator", "kernel"))

    # ------------------------------------------------------------ ingest

    def observe_query(self, result) -> None:
        """Fold one finished query's profile trees into the totals."""
        profiles = result.profiles
        if not profiles:
            return
        self.queries_observed += 1
        seen_kinds = set()
        for root in profiles:
            for node in walk(root):
                kind = node.kind
                agg = self.stats.get(kind)
                if agg is None:
                    agg = self.stats[kind] = OperatorAgg()
                if kind not in seen_kinds:
                    seen_kinds.add(kind)
                    agg.queries += 1
                n_streams = max(1, len(node.stream_times))
                agg.instances += n_streams
                agg.rows_in += node.tuples_in
                agg.rows_out += node.tuples_out
                agg.batches += node.batches
                agg.net_bytes += node.net_bytes
                wall = node.time
                sim = node_sim_cost(node)
                agg.wall_seconds += wall
                agg.sim_cost += sim
                for name, stat in node.kernels.items():
                    agg.kernel_stat(name).merge(stat)
                self._charge(kind, node, wall, sim)

    def _charge(self, kind: str, node: ProfileNode,
                wall: float, sim: float) -> None:
        if node.tuples_in:
            self._rows.inc(node.tuples_in, operator=kind, direction="in")
        if node.tuples_out:
            self._rows.inc(node.tuples_out, operator=kind, direction="out")
        if node.batches:
            self._batches.inc(node.batches, operator=kind)
        if sim:
            self._sim.inc(sim, operator=kind)
        if wall:
            self._wall.inc(wall, operator=kind)
        for name, stat in node.kernels.items():
            self._kcalls.inc(stat.calls, operator=kind, kernel=name)
            if stat.rows:
                self._krows.inc(stat.rows, operator=kind, kernel=name)
            if stat.bytes:
                self._kbytes.inc(stat.bytes, operator=kind, kernel=name)
            if stat.seconds:
                self._kwall.inc(stat.seconds, operator=kind, kernel=name)

    def reset(self) -> None:
        self.stats.clear()
        self.queries_observed = 0

    # ----------------------------------------------------------- export

    def rows(self) -> List[tuple]:
        """``vh$operator_stats`` rows, deterministic columns first."""
        out = []
        for kind in sorted(self.stats):
            agg = self.stats[kind]
            rows_per_s = (agg.rows_out / agg.wall_seconds
                          if agg.wall_seconds > 0 else 0.0)
            out.append((
                kind, agg.queries, agg.instances, agg.rows_in, agg.rows_out,
                agg.batches, agg.net_bytes, agg.sim_cost,
                agg.wall_seconds, rows_per_s,
            ))
        return out

    def hot_paths(self, k: int = HOT_PATHS_TOP_K) -> List[tuple]:
        """Top-k (operator, kernel) pairs ranked by deterministic sim cost.

        An ``(self)`` pseudo-kernel carries each operator's residual
        (time not attributed to any named kernel), so the view always
        covers 100% of the work.
        """
        entries: List[tuple] = []
        for kind in sorted(self.stats):
            agg = self.stats[kind]
            named_sim = 0.0
            named_wall = 0.0
            for name in sorted(agg.kernels):
                stat = agg.kernels[name]
                sim = kernel_sim_cost(stat)
                named_sim += sim
                named_wall += stat.seconds
                entries.append((kind, name, stat.calls, stat.rows,
                                stat.bytes, sim, stat.seconds))
            self_sim = max(0.0, agg.sim_cost - named_sim)
            self_wall = max(0.0, agg.wall_seconds - named_wall)
            entries.append((kind, "(self)", agg.batches, agg.rows_out,
                            0, self_sim, self_wall))
        total_sim = sum(e[5] for e in entries) or 1.0
        entries.sort(key=lambda e: (-e[5], e[0], e[1]))
        ranked = []
        for rank, (op, name, calls, rows, nbytes, sim, wall) in enumerate(
                entries[:k], start=1):
            ranked.append((rank, op, name, calls, rows, nbytes,
                           sim, wall, sim / total_sim))
        return ranked

    def report(self, k: int = HOT_PATHS_TOP_K) -> str:
        """Human-readable top-k hot paths (the ``slow_report`` companion)."""
        lines = [f"{'#':>3} {'operator':<16} {'kernel':<20} "
                 f"{'calls':>10} {'rows':>12} {'sim s':>10} "
                 f"{'wall s':>10} {'share':>7}"]
        for (rank, op, name, calls, rows, _nbytes, sim, wall,
                share) in self.hot_paths(k):
            lines.append(f"{rank:>3} {op:<16} {name:<20} {calls:>10,} "
                         f"{rows:>12,} {sim:>10.4f} {wall:>10.4f} "
                         f"{100 * share:>6.2f}%")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-query exports: dominant operator, folded stacks, Chrome trace
# ---------------------------------------------------------------------------

def dominant_operator(profiles: Sequence[ProfileNode]) -> Tuple[str, float]:
    """(kind, share) of the operator kind dominating a query's work.

    Measured on deterministic sim cost, so the query-log culprit column
    is bit-identical across same-seed runs.
    """
    per_kind: Dict[str, float] = {}
    total = 0.0
    for root in profiles:
        for node in walk(root):
            sim = node_sim_cost(node)
            kind = node.kind
            per_kind[kind] = per_kind.get(kind, 0.0) + sim
            total += sim
    if not per_kind or total <= 0:
        return "", 0.0
    kind, sim = min(per_kind.items(), key=lambda kv: (-kv[1], kv[0]))
    return kind, sim / total


def _frame(label: str) -> str:
    """Sanitize a label into a folded-stack frame token."""
    return re.sub(r"\s+", "_", label).replace(";", ",")


def folded_stacks(profiles: Sequence[ProfileNode]) -> str:
    """Render profile trees as folded stacks (``stack count`` per line).

    Counts are integer microseconds of *self* wall time; named kernels
    hang off their operator as ``kernel:<name>`` leaf frames. Feed the
    output to any flamegraph renderer (e.g. speedscope, inferno).
    """
    lines: List[str] = []

    def emit(node: ProfileNode, prefix: str) -> None:
        path = (prefix + ";" if prefix else "") + _frame(node.label)
        kernel_s = 0.0
        for name in sorted(node.kernels):
            stat = node.kernels[name]
            kernel_s += stat.seconds
            usec = int(round(stat.seconds * 1e6))
            lines.append(f"{path};kernel:{_frame(name)} {max(1, usec)}")
        self_usec = int(round(max(0.0, node.time - kernel_s) * 1e6))
        lines.append(f"{path} {max(1, self_usec)}")
        for child in node.children:
            emit(child, path)

    for i, root in enumerate(profiles):
        emit(root, f"stream_{i}" if len(profiles) > 1 else "")
    return "\n".join(lines) + "\n"


def profile_chrome_trace(profiles: Sequence[ProfileNode]) -> str:
    """Render profile trees as a Chrome-trace JSON string.

    The trace is a *synthetic* timeline reconstructed from cumulative
    times (the engine interleaves operators on one thread, so true
    intervals do not exist): each operator is an ``X`` event whose
    children nest after its self window, kernels as sub-events.
    """
    events: List[dict] = []

    def emit(node: ProfileNode, t0: float, tid: int) -> None:
        dur = max(node.cum_time, 1e-9)
        events.append({
            "name": node.label, "cat": "operator", "ph": "X",
            "ts": int(t0 * 1e6), "dur": max(1, int(dur * 1e6)),
            "pid": 1, "tid": tid,
            "args": {"rows_in": node.tuples_in, "rows_out": node.tuples_out,
                     "batches": node.batches},
        })
        cursor = t0
        for name in sorted(node.kernels):
            stat = node.kernels[name]
            events.append({
                "name": f"kernel:{name}", "cat": "kernel", "ph": "X",
                "ts": int(cursor * 1e6),
                "dur": max(1, int(stat.seconds * 1e6)),
                "pid": 1, "tid": tid,
                "args": {"calls": stat.calls, "rows": stat.rows,
                         "bytes": stat.bytes},
            })
            cursor += stat.seconds
        child_t = t0 + node.time
        for child in node.children:
            emit(child, child_t, tid)
            child_t += child.cum_time

    for i, root in enumerate(profiles):
        emit(root, 0.0, i + 1)
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      indent=1)
