"""The chaos controller: schedules faults, drives recovery, keeps score.

One :class:`ChaosController` owns a :class:`~repro.chaos.faults.FaultPlan`
and a private ``random.Random(seed)``; installed on a cluster it hooks

* the MPI fabric (message delay, drop + timeout/retry, duplication,
  straggler links),
* HDFS (slow-disk stragglers, replica read errors forcing fallback,
  node crashes),
* YARN (container preemption storms mid-query),
* the transaction manager (node crash between 2PC prepare and commit),

and ticks from the workload manager's round hook, firing each spec when
the shared simulated clock passes its time. Every fired fault is followed
by an :class:`~repro.chaos.invariants.InvariantChecker` pass; the
controller's :meth:`report` is bit-identical across runs with the same
seed and workload (wall time never enters it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import (
    DataLossError,
    SimulatedCrash,
    YarnError,
)
from repro.chaos.faults import (
    FaultPlan,
    FaultSpec,
    HdfsFaultInjector,
    NetFaultInjector,
)
from repro.chaos.invariants import InvariantChecker, InvariantReport


@dataclass
class FiredFault:
    """One plan entry after the controller acted on it."""

    spec: FaultSpec
    fired_at: float
    detail: str = ""
    invariant_ok: bool = True

    def key(self) -> tuple:
        return (self.spec.key(), round(self.fired_at, 9), self.detail,
                self.invariant_ok)


@dataclass
class _Storm:
    """A live preemption storm: hostile apps to clean up at restore time."""

    app_id: str
    restore_at: float
    slices_before: int = 0


class ChaosController:
    """Deterministic, seeded fault injection against one cluster."""

    def __init__(self, cluster, seed: Optional[int] = None,
                 plan: Optional[FaultPlan] = None, **plan_kwargs):
        self.cluster = cluster
        self.seed = cluster.config.chaos_seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.plan = plan if plan is not None else FaultPlan.generate(
            self.seed, cluster.workers, **plan_kwargs)
        self.net = NetFaultInjector()
        self.hdfs = HdfsFaultInjector()
        self.checker = InvariantChecker(cluster)
        self.fired: List[FiredFault] = []
        self.reports: List[InvariantReport] = []
        self._unfired: List[FaultSpec] = list(self.plan)
        self._storms: List[_Storm] = []
        self._pending_txn_crash: Optional[FaultSpec] = None
        self.crashed_nodes: List[str] = []
        self.installed = False
        self._injected = cluster.registry.counter(
            "faults_injected_total", "Chaos faults fired, by kind",
            labels=("kind",),
        )

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "ChaosController":
        """Hook every subsystem; chaos ticks on each workload round."""
        cluster = self.cluster
        cluster.mpi.faults = self.net
        cluster.hdfs.fault_injector = self.hdfs
        cluster.txn.crash_hook = self._crash_hook
        cluster.workload.round_hooks.append(self.tick)
        cluster.chaos = self
        self.installed = True
        cluster.events.emit("chaos", "installed", seed=self.seed,
                            faults=len(self.plan))
        return self

    def uninstall(self) -> None:
        cluster = self.cluster
        cluster.mpi.faults = None
        cluster.hdfs.fault_injector = None
        cluster.txn.crash_hook = None
        if self.tick in cluster.workload.round_hooks:
            cluster.workload.round_hooks.remove(self.tick)
        if cluster.chaos is self:
            cluster.chaos = None
        self.installed = False

    # -- firing --------------------------------------------------------------

    def tick(self) -> None:
        """Fire every not-yet-fired spec whose time has come."""
        now = self.cluster.sim_clock.seconds
        due = [s for s in self._unfired if s.at <= now]
        for spec in due:
            self._unfired.remove(spec)
            self._fire(spec, now)
        for storm in [s for s in self._storms if s.restore_at <= now]:
            self._storms.remove(storm)
            self._end_storm(storm)

    def drain(self) -> None:
        """Fire everything left in the plan regardless of clock time
        (used at end of run so short workloads still see late faults)."""
        for spec in list(self._unfired):
            self._unfired.remove(spec)
            self._fire(spec, self.cluster.sim_clock.seconds)
        for storm in list(self._storms):
            self._storms.remove(storm)
            self._end_storm(storm)

    def _fire(self, spec: FaultSpec, now: float) -> None:
        detail = ""
        if spec.kind.startswith("net."):
            self.net.arm(spec)
            detail = "armed"
        elif spec.kind.startswith("hdfs."):
            self.hdfs.arm(spec)
            detail = "armed"
        elif spec.kind == "yarn.preempt_storm":
            detail = self._start_storm(spec, now)
        elif spec.kind == "node.crash":
            detail = self._crash_node(spec.target)
        elif spec.kind == "txn.crash":
            self._pending_txn_crash = spec
            detail = "armed"
        elif spec.kind == "conn.drop":
            detail = self._drop_connection(spec)
        elif spec.kind == "tenant.storm":
            detail = self._tenant_storm(spec)
        self._injected.inc(kind=spec.kind)
        self.cluster.events.emit("chaos", "injected", fault=spec.kind,
                                 target=spec.target, detail=detail)
        report = self.checker.check(context=f"after {spec.kind}")
        self.reports.append(report)
        self.fired.append(FiredFault(spec, now, detail, report.ok))
        if not report.ok:
            self.cluster.events.emit(
                "chaos", "invariant_violation", fault=spec.kind,
                violations=len(report.violations))

    # -- node crashes --------------------------------------------------------

    def _crash_node(self, node: str) -> str:
        cluster = self.cluster
        if node not in cluster.workers or len(cluster.workers) <= 2:
            return "skipped (worker set too small)"
        # failover renegotiates the worker set; while a storm holds the
        # cluster's full capacity that would wedge, so lift it first
        for storm in list(self._storms):
            self._storms.remove(storm)
            self._end_storm(storm)
        try:
            result = cluster.fail_node(node)
        except DataLossError as exc:
            # the plan rolled a node whose loss would be unrecoverable;
            # the controller must not destroy data to make a point
            return f"refused: {exc}"
        self.crashed_nodes.append(node)
        return (f"failed over, moved={result['moved_partitions']} "
                f"resolved={len(result['resolved']['committed'])}c/"
                f"{len(result['resolved']['aborted'])}a")

    # -- 2PC crash points ----------------------------------------------------

    def _crash_hook(self, point: str, txn) -> None:
        spec = self._pending_txn_crash
        if spec is None or spec.target != point:
            return
        self._pending_txn_crash = None
        victim = self.cluster.session_master
        self.cluster.events.emit("chaos", "txn_crash", point=point,
                                 node=victim, txn=txn.txn_id)
        raise SimulatedCrash(victim, point)

    def handle_crash(self, exc: SimulatedCrash) -> dict:
        """Drive recovery from a :class:`SimulatedCrash` a caller caught.

        Fails the crashed node over (which resolves the in-doubt
        transaction it left from its per-partition WALs) and runs the
        invariant checker on the result.
        """
        result = self.cluster.fail_node(exc.node)
        self.crashed_nodes.append(exc.node)
        report = self.checker.check(context=f"after crash at {exc.point}")
        self.reports.append(report)
        return result

    # -- preemption storms ---------------------------------------------------

    def _start_storm(self, spec: FaultSpec, now: float) -> str:
        cluster = self.cluster
        slices_before = len(cluster.dbagent.slices)
        app = cluster.rm.submit_application("chaos-storm", "prod")
        taken = 0
        for node in sorted(set(cluster.workers)):
            # a full-node ask from the higher-priority queue cannot fit
            # next to anything, so YARN must evict the slice dummies
            try:
                cluster.rm.request_container(
                    app, node, cluster.config.cores_per_node,
                    cluster.config.memory_per_node_mb,
                    allow_preemption=True,
                )
                taken += 1
            except YarnError:
                continue
        self._storms.append(_Storm(app.app_id, now + spec.param,
                                   slices_before))
        return f"storm app={app.app_id} containers={taken}"

    def _end_storm(self, storm: _Storm) -> None:
        cluster = self.cluster
        try:
            cluster.rm.kill_application(storm.app_id)
        except YarnError:
            pass
        if storm.slices_before:
            cluster.dbagent.negotiate_to_target(storm.slices_before)
        cluster.events.emit("chaos", "storm_over", app=storm.app_id,
                            slices=len(cluster.dbagent.slices))

    # -- server-frontend faults ----------------------------------------------

    def _drop_connection(self, spec: FaultSpec) -> str:
        frontend = self.cluster.frontend
        if frontend is None:
            return "skipped (no server frontend)"
        return frontend.chaos_drop_connection(spec.target or None)

    def _tenant_storm(self, spec: FaultSpec) -> str:
        frontend = self.cluster.frontend
        if frontend is None:
            return "skipped (no server frontend)"
        return frontend.chaos_storm(spec.target or None,
                                    count=max(1, spec.count))

    # -- reporting -----------------------------------------------------------

    def final_check(self) -> InvariantReport:
        """One last invariant pass, recorded like any fault's."""
        report = self.checker.check(context="final")
        self.reports.append(report)
        return report

    def report(self) -> dict:
        """Deterministic run summary (no wall-clock anywhere)."""
        return {
            "seed": self.seed,
            "schedule": self.plan.schedule(),
            "fired": [f.key() for f in self.fired],
            "crashed_nodes": list(self.crashed_nodes),
            "invariants": [r.key() for r in self.reports],
            "violations": sum(len(r.violations) for r in self.reports),
        }
