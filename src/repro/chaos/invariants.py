"""Cluster invariants checked after every injected fault.

The checker is the chaos subsystem's oracle: a fault plan is only a
passing run if, after every injection and recovery action, the cluster
still satisfies the properties failover is supposed to preserve:

* **replication** -- every HDFS file holds its full replication degree
  on alive nodes (bounded by the alive-node count);
* **durability, exactly once** -- replaying each partition WAL from
  scratch reproduces exactly the in-memory PDT entry count: committed
  transaction effects survive (no loss) and appear once (no double
  apply after recovery);
* **no lingering in-doubt transactions** -- every prepare record is
  followed by a commit or abort resolution;
* **MinMax covers the PDT** -- every value a partition's PDT stack makes
  visible lies inside the MinMax range of the block it lands in
  (or a scan pruning on that value skips a row it should return);
* **admission accounting** -- the queue, running and quota gauges
  equal what the live query records say, and when no query is running
  the shared memory meter reads zero on every node (cancel/retry paths
  released everything they charged);
* **terminal records are flat** -- no finished, failed or cancelled
  query's record still pins its plan, snapshot transaction, operator
  tree or the tracer span it was submitted under, whichever path
  (completion, cancel, timeout, retry exhaustion) took it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.pdt.layer import classify_entries
from repro.pdt.stack import PdtStack


@dataclass
class InvariantReport:
    """Outcome of one checker pass."""

    context: str
    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def key(self) -> tuple:
        """Deterministic fingerprint for run-to-run comparison."""
        return (self.context, self.checks, tuple(self.violations))


class InvariantChecker:
    """Checks a :class:`~repro.cluster.vectorh.VectorHCluster`'s health."""

    def __init__(self, cluster):
        self.cluster = cluster

    def check(self, context: str = "") -> InvariantReport:
        report = InvariantReport(context=context)
        self._check_replication(report)
        self._check_wal_durability(report)
        self._check_minmax_covers_pdt(report)
        self._check_admission(report)
        self._check_terminal_records(report)
        return report

    # -- individual invariants ----------------------------------------------

    def _check_replication(self, report: InvariantReport) -> None:
        hdfs = self.cluster.hdfs
        n_alive = len(hdfs.alive_nodes())
        for path in sorted(hdfs.files):
            f = hdfs.files[path]
            live = hdfs.alive_replicas(path)
            want = min(f.replication, n_alive)
            report.checks += 1
            if len(live) < want:
                report.violations.append(
                    f"under-replicated: {path} has {len(live)}/{want} "
                    f"alive replicas")

    def _check_wal_durability(self, report: InvariantReport) -> None:
        cluster = self.cluster
        reader = cluster.session_master
        for tname in sorted(cluster.tables):
            stored = cluster.tables[tname]
            for pid in range(stored.n_partitions):
                log = cluster.wal.partition_log(tname, pid, reader=reader)
                replayed = PdtStack(cluster.config.write_pdt_flush_threshold)
                for entries in log.commits:
                    replayed.apply(entries)
                report.checks += 1
                mem = stored.pdt[pid].total_entries()
                wal = replayed.total_entries()
                if wal != mem:
                    report.violations.append(
                        f"pdt/wal divergence on {tname}/{pid}: "
                        f"wal replay has {wal} entries, memory has {mem}")
                report.checks += 1
                if log.in_doubt:
                    report.violations.append(
                        f"unresolved in-doubt txns on {tname}/{pid}: "
                        f"{sorted(log.in_doubt)}")

    def _check_minmax_covers_pdt(self, report: InvariantReport) -> None:
        report.checks += sum(stored.n_partitions
                             for stored in self.cluster.tables.values())
        report.violations.extend(minmax_pdt_gaps(self.cluster))

    def _check_admission(self, report: InvariantReport) -> None:
        wm = self.cluster.workload
        report.checks += 2
        report.violations.extend(admission_gauge_drift(self.cluster))
        if wm._running:
            return  # live queries legitimately hold memory
        held = {n: v for n, v in sorted(wm.meter.current.items()) if v}
        if held:
            report.violations.append(
                f"admission meter not released while idle: {held}")

    def _check_terminal_records(self, report: InvariantReport) -> None:
        report.checks += 1
        pinned = [
            r.query_id for r in self.cluster.workload.terminal_records()
            if any(ref is not None for ref in (
                r.run, r.trans, r.qplan, r.trace_parent))]
        if pinned:
            report.violations.append(
                f"terminal query records still pin their plan, snapshot "
                f"or operator tree: {pinned}")


def admission_gauge_drift(cluster) -> List[str]:
    """One line per admission gauge whose value is not what the workload
    manager's live query records count."""
    live = [(r.state, r.tenant) for r in cluster.workload._live.values()]
    states = [state for state, _ in live]
    expected = {("admission_queue_depth", ()): states.count("queued"),
                ("queries_running", ()): states.count("running")}
    for name, tenant in cluster.workload.admission.tenants.items():
        labels = (("tenant", name),)
        queued = live.count(("queued", name))
        expected["tenant_queue_depth", labels] = queued
        expected["tenant_running", labels] = live.count(("running", name))
        if tenant.max_concurrent:
            expected["tenant_quota_saturation", labels] = (
                queued / tenant.max_concurrent)
    drift = []
    for (metric, labels), want in expected.items():
        have = cluster.registry.value(metric, **dict(labels))
        if have != want:
            drift.append(f"admission gauge {metric}{dict(labels)} reads "
                         f"{have}, the live queries say {want}")
    return drift


def minmax_pdt_gaps(cluster) -> List[str]:
    """One line per value a partition's PDT stack makes visible outside
    the MinMax range of the block it lands in: an insert at its
    anchor, a modify at its row, in the range ``MinMaxIndex.widen_batch``
    widens there (the last one past the end)."""
    gaps = []
    for tname in sorted(cluster.tables):
        stored = cluster.tables[tname]
        for pid, store in enumerate(stored.partitions):
            plan = classify_entries(stored.pdt[pid].scan_entries())
            for name, rows, values in plan.written():
                ranges = store.minmax.ranges.get(name)
                if ranges is None:
                    continue  # nothing to prune on
                at = np.searchsorted(ranges.starts, rows, side="right") - 1
                mins, maxs = ranges.mins[at], ranges.maxs[at]
                inside = (mins <= values) & (values <= maxs)
                for i in np.flatnonzero(~inside).tolist():
                    gaps.append(
                        f"minmax misses a pdt value on {tname}/{pid}: "
                        f"{name} = {values.tolist()[i]!r} at row "
                        f"{int(rows[i])}, range "
                        f"[{mins[i]!r}, {maxs[i]!r}]")
    return gaps
