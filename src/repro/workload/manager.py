"""The workload manager: VectorH's multi-query control loop (paper §4).

VectorH runs as a long-lived multi-user service: the YARN dbAgent grows
and shrinks the footprint "based on query load", and the DXchg buffer
memory math exists because many streams share each node's memory. This
module is the control loop that makes those statements meaningful in the
reproduction: N queries run *interleaved on one shared simulated clock*.

Scheduling model
----------------
Every admitted query is a suspended :class:`~repro.mpp.executor.QueryRun`
on the manager's shared :class:`StreamScheduler`. One *global round*
gives each running query one *turn*: a single root-stream pull, which
internally advances that query's exchange sender fragments one vector
each. All the scheduler charges a turn makes are buffered
(``begin_turn``/``end_turn``) and the round then charges only the
slowest query's turn (``charge_concurrent``) -- admission guarantees the
concurrent queries hold disjoint core slots, so their turns genuinely
overlap and only the slowest is on the round's critical path. This is
the same max-of-streams rule the per-query scheduler already applied
within a query, lifted one level up; it is why the interleaved makespan
of N queries is strictly below the sum of their serial runtimes.

Snapshots
---------
The query's transaction snapshot is pinned at *admission*
(:meth:`TransactionManager.pin_snapshot`): every scanned partition's
Trans-PDT is created then, capturing the PDT layer references of that
instant. Commits are copy-on-write, so a reader suspended for many
rounds keeps a stable snapshot while concurrent DML commits -- snapshot
isolation under genuine interleaving, with write-write conflicts still
aborting in 2PC prepare.
"""

from __future__ import annotations

import itertools
import time as _time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ExecutionError, QueryCancelled, QueryTimeout
from repro.engine.exchange import BatchCostModel, MemoryMeter, StreamScheduler
from repro.mpp import plan as P
from repro.mpp.executor import QueryResult, QueryRun
from repro.mpp.plan import QueryPlan
from repro.mpp.rewriter import ParallelRewriter
from repro.obs import Span, span_from_profile
from repro.workload.admission import (
    DEFAULT_TENANT,
    AdmissionPolicy,
    estimate_query_memory,
)

#: terminal queries kept (as one flat row each) for ``vh$queries`` and
#: the reports; the oldest falls off the ring and is
#: counted in ``query_log_dropped_total``
QUERY_RING_CAPACITY = 4096

QUEUED = "queued"
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"
CANCELLED = "cancelled"


@dataclass
class QueryRecord:
    """The one record of a query, from submission to eviction.

    While the query is queued or running it carries the plan, the
    snapshot transaction and the live run. Reaching a terminal state
    folds the summary scalars below into it
    (:meth:`FlightRecorder.record_query`) and drops every one of those
    references, so what stays in the manager's ring is a flat row of
    scalars and short strings. ``result`` / ``error`` wait for the first
    :meth:`WorkloadManager.gather` and are handed over.
    """

    query_id: int
    session_id: int
    #: what was planned at submission; every (re-)dispatch prepares it
    qplan: Optional[QueryPlan]
    statement: str = ""
    #: the tenant whose queue/quotas govern this query's admission
    tenant: str = DEFAULT_TENANT
    #: statement fingerprint; a submitter may pre-compute it (prepared
    #: statements share one across every set of bound parameters),
    #: otherwise it is filled in at terminal state
    fingerprint: str = ""
    root_label: str = "query"
    state: str = QUEUED
    trace: bool = False
    timeout: Optional[float] = None
    trans: object = None
    own_txn: bool = False
    memory_estimate: Optional[Dict[str, int]] = None
    retries: int = 0
    queue_reason: str = ""
    cancel_reason: str = ""
    error: Optional[BaseException] = None
    #: ``TypeName: message`` of a failed query, kept after ``error``
    #: (whose traceback pins the operator frames) was handed over
    error_text: str = ""
    #: the live operator tree: set while RUNNING only
    run: Optional[QueryRun] = None
    #: scheduler rounds taken so far (final once terminal)
    rounds: int = 0
    result: Optional[QueryResult] = None
    submit_wall: float = 0.0
    submit_sim: float = 0.0
    #: when the rewrite at submission ended
    plan_wall: float = 0.0
    admit_wall: float = 0.0
    admit_sim: float = 0.0
    finish_wall: float = 0.0
    finish_sim: float = 0.0
    wait_sim: float = 0.0
    #: the tracer span open at submission: it adopts the span tree
    trace_parent: Optional[Span] = None
    # -- terminal summary (``vh$queries`` from ``fingerprint`` on)
    plan_signature: str = ""
    rows: int = 0
    peak_memory_bytes: int = 0
    wire_bytes: int = 0
    replans: int = 0
    max_qerror: float = 0.0
    #: operator kind that spent most of the query's measured wall, and
    #: its share of it (0..1)
    dominant_op: str = ""
    dominant_share: float = 0.0

    @property
    def wall_s(self) -> float:
        return max(0.0, self.finish_wall - self.submit_wall)

    @property
    def sim_s(self) -> float:
        return max(0.0, self.finish_sim - self.submit_sim)


class WorkloadManager:
    """Concurrent, admission-controlled multi-query scheduling: the run
    loop around an :class:`~repro.workload.admission.AdmissionPolicy`."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: the cluster-wide scheduler: every admitted query's rounds are
        #: charged here, against the cluster's one simulated clock
        self.scheduler = StreamScheduler(
            cluster.sim_clock,
            cost_model=(BatchCostModel()
                        if cluster.config.workload_deterministic else None))
        #: cluster-wide live memory; per-query meters chain into it
        self.meter = MemoryMeter()
        #: queued and running queries, by id, in submission order
        self._live: Dict[int, QueryRecord] = {}
        #: terminal queries in completion order, oldest first; bounded
        #: by QUERY_RING_CAPACITY
        self._ring: "OrderedDict[int, QueryRecord]" = OrderedDict()
        self._running: List[int] = []  # qids with a live QueryRun
        self._query_ids = itertools.count(1)
        #: callables invoked at the top of every :meth:`step` round (the
        #: chaos controller's tick hangs here; hooks may fail nodes and
        #: unwind running queries -- the round guards against both)
        self.round_hooks: List = []

        registry = cluster.registry
        self._g_running = registry.gauge(
            "queries_running", "Queries currently admitted and interleaving",
            sticky=True)
        self._h_wait = registry.histogram(
            "query_wait_seconds",
            "Simulated seconds queries spent in the admission queue")
        self._retried = registry.counter(
            "queries_retried_total",
            "Queries transparently re-dispatched after losing a worker")
        self._c_logged = registry.counter(
            "query_log_records_total",
            "Terminal queries appended to the query log, by state",
            labels=("state",))
        self._c_dropped = registry.counter(
            "query_log_dropped_total",
            "Query-log records dropped by the retention cap")
        self._g_running.set(0)
        self.admission = AdmissionPolicy(cluster)

    # ------------------------------------------------------------ plumbing

    @property
    def _clock(self):
        return self.cluster.sim_clock

    def _emit(self, kind: str, **attrs) -> None:
        self.cluster.events.emit("workload", kind, **attrs)

    def queued_ids(self) -> List[int]:
        """All waiting query ids, in submission order."""
        return [qid for qid, r in self._live.items() if r.state == QUEUED]

    def load(self) -> Dict[str, int]:
        """Live load probe: what the dbAgent's automatic footprint sees."""
        streams_per_query = max(1, len(self.cluster.workers))
        return {
            "queued": len(self.queued_ids()),
            "running": len(self._running),
            "running_streams": len(self._running) * streams_per_query,
        }

    def terminal_records(self) -> List[QueryRecord]:
        """The ring: finished, failed and cancelled queries, oldest first."""
        return list(self._ring.values())

    def query_records(self) -> List[QueryRecord]:
        """Ring + live, in submission order."""
        return sorted([*self._ring.values(), *self._live.values()],
                      key=lambda r: r.query_id)

    def is_live(self, query_id: int) -> bool:
        """True while the query is queued or running."""
        return query_id in self._live

    # --------------------------------------------------------------- submit

    def submit(self, plan, flags=None, trans=None,
               timeout: Optional[float] = None,
               trace: bool = False,
               memory_estimate: Optional[Dict[str, int]] = None,
               session: int = 0,
               statement: Optional[str] = None,
               tenant: str = DEFAULT_TENANT,
               fingerprint: str = "") -> int:
        """Plan a query and enqueue it; returns the query id.

        ``plan`` is a logical plan, rewritten here under ``flags`` (which
        also say how its exchanges run), or an already-planned
        :class:`~repro.mpp.plan.QueryPlan`, used as is. Execution happens
        in :meth:`step` rounds, normally driven from :meth:`gather`.
        ``timeout`` is a simulated-seconds budget from submission;
        ``memory_estimate`` overrides the plan-derived admission
        estimate; ``trace`` puts the span tree on the result; ``tenant``
        picks the admission queue; ``session`` is the submitting server
        connection's id (0 for a library call); ``fingerprint`` overrides
        the statement fingerprint (one per prepared statement).
        """
        cluster = self.cluster
        qid = next(self._query_ids)
        wall0, sim0 = _time.perf_counter(), self._clock.seconds
        parent = cluster.tracer.current
        if statement is None and parent is not None:
            statement = str(parent.attrs.get("statement", ""))

        qplan = (plan if isinstance(plan, QueryPlan)
                 else ParallelRewriter(cluster, flags).plan(plan))
        record = QueryRecord(
            query_id=qid, session_id=session, qplan=qplan,
            statement=statement or "",
            tenant=tenant, fingerprint=fingerprint,
            root_label=parent.name if parent is not None else "query",
            trace=trace, timeout=timeout, trans=trans,
            submit_wall=wall0, submit_sim=sim0,
            plan_wall=_time.perf_counter(), trace_parent=parent,
            memory_estimate=(memory_estimate if memory_estimate is not None
                             else estimate_query_memory(cluster, qplan)),
        )
        self._live[qid] = record
        self.admission.enqueue(record)
        self._emit("query.queued", query=qid, session=session, tenant=tenant)
        self._admit()
        return qid

    # ------------------------------------------------------------ admission

    def _admit(self) -> None:
        """Start every query the admission policy lets start now."""
        while True:
            pick = self.admission.next_admission(
                self._live, len(self._running), self.meter)
            if pick is None:
                return
            self._start(*pick)

    def _start(self, record: QueryRecord, forced: bool) -> None:
        cluster = self.cluster
        record.state = RUNNING
        record.queue_reason = ""
        record.admit_wall = _time.perf_counter()
        record.admit_sim = self._clock.seconds
        record.wait_sim = record.admit_sim - record.submit_sim
        self._h_wait.observe(record.wait_sim)
        if record.trans is None:
            record.trans = cluster.txn.begin()
            record.own_txn = True
        # snapshot isolation under interleaving: pin every scanned
        # partition's Trans-PDT now, not at first pull many rounds later
        cluster.txn.pin_snapshot(
            record.trans, self._scan_parts(record.qplan.root))
        record.run = cluster.executor.prepare(
            record.qplan, record.trans, self.scheduler, self.meter,
            query_id=record.query_id)
        self._running.append(record.query_id)
        self._g_running.set(len(self._running))
        self._emit("query.admitted", query=record.query_id,
                   wait=round(record.wait_sim, 9), forced=forced,
                   tenant=record.tenant)

    def _scan_parts(self, phys: P.PhysNode):
        """The ``(table, pid)`` pairs the plan's scans reach."""
        reached: Dict[str, frozenset] = {}
        for scan in [n for n in phys.walk() if isinstance(n, P.PScan)]:
            table = self.cluster.table(scan.table)
            if not table.is_virtual:
                pids = (range(table.n_partitions) if scan.partitions is None
                        else scan.partitions)
                reached[scan.table] = reached.get(
                    scan.table, frozenset()).union(pids)
        return sorted((name, pid) for name, pids in reached.items()
                      for pid in pids)

    # ----------------------------------------------------------- scheduling

    def step(self) -> bool:
        """Run one global round: one turn per running query.

        Returns True if any query could run (or was admitted); False
        when the manager is idle.
        """
        for hook in list(self.round_hooks):
            hook()
        self._check_timeouts()
        self._admit()
        if not self._running:
            return False
        turn_costs: List[float] = []
        finished: List[QueryRecord] = []
        for qid in list(self._running):
            record = self._live.get(qid)
            # a round hook (chaos) may have failed a node and unwound
            # this query back to the queue mid-round
            if record is None or record.run is None:
                continue
            self.scheduler.begin_turn()
            try:
                more = record.run.step()
            except Exception as exc:  # noqa: BLE001 - recorded, re-raised
                turn_costs.append(self.scheduler.end_turn())
                self._fail(record, exc)
                continue
            turn_costs.append(self.scheduler.end_turn())
            record.rounds = record.run.rounds
            if not more:
                finished.append(record)
        # queries on disjoint core slots overlap: the round costs the
        # slowest turn, not the sum -- the concurrency win measured by
        # the makespan acceptance criterion
        self.scheduler.charge_concurrent(turn_costs)
        for record in finished:
            self._complete(record)
        if finished:
            self._admit()
        return True

    def drain(self) -> None:
        """Step until every submitted query reached a terminal state."""
        while self.step():
            pass

    def _check_timeouts(self) -> None:
        clock = self._clock.seconds
        # only live queries can time out; submission order, so twin runs
        # cancel in the same sequence
        for record in list(self._live.values()):
            if record.timeout is not None and \
                    clock - record.submit_sim > record.timeout:
                self.cancel(record.query_id, reason="timeout")

    # ----------------------------------------------------------- completion

    def _finish_own_txn(self, record: QueryRecord, commit: bool) -> None:
        trans = record.trans
        if not record.own_txn or trans is None or trans.finished:
            return
        if commit:
            trans.commit()  # read-only: an empty implicit commit
        elif trans.is_update():
            trans.abort()
        else:
            trans.finished = True

    def _complete(self, record: QueryRecord) -> None:
        result = record.run.finish()
        try:
            self._finish_own_txn(record, commit=True)
        except Exception as exc:  # pragma: no cover - read-only commits
            self._fail(record, exc)
            return
        record.result = result
        self._close(record, FINISHED, "query.finished", rounds=result.rounds,
                    sim=round(result.simulated_parallel_seconds, 9))

    def _fail(self, record: QueryRecord, exc: BaseException) -> None:
        record.run.cancel()
        self._finish_own_txn(record, commit=False)
        record.error = exc
        record.error_text = f"{type(exc).__name__}: {exc}"
        self._close(record, FAILED, "query.failed",
                    error=type(exc).__name__)

    def cancel(self, query_id: int, reason: str = "cancelled") -> bool:
        """Cancel a queued or suspended query; unwinds it cleanly.

        Returns False if the query already reached a terminal state.
        Running queries close their operator generators (releasing scan
        holds), drop buffered DXchg channel bytes without flushing them
        to the fabric, drain receive queues and give live memory back to
        the shared meter; a ``query.cancelled`` cluster event is emitted.
        """
        record = self._live.get(query_id)
        if record is None:
            return False
        if record.state == QUEUED:
            self.admission.withdraw(record)
        else:
            record.run.cancel()
        self._finish_own_txn(record, commit=False)
        record.cancel_reason = reason
        self._close(record, CANCELLED, "query.cancelled", reason=reason)
        self._admit()  # the freed slot may unblock the queue
        return True

    def _release_running(self, record: QueryRecord,
                         finished: bool = True) -> None:
        """Drop a query from the running set and its tenant's count."""
        self._running.remove(record.query_id)
        self._g_running.set(len(self._running))
        self.admission.release(record, finished)

    def _close(self, record: QueryRecord, state: str, event: str,
               **attrs) -> None:
        """Terminal bookkeeping: stamp the state and both clocks, free
        the slot, emit ``event``, hand the span tree to its reader, fold
        the summary scalars into the record, let go of everything else
        and move the record from the live set to the ring."""
        record.state = state
        record.finish_wall = _time.perf_counter()
        record.finish_sim = self._clock.seconds
        if record.query_id in self._running:
            self._release_running(record)
        self._emit(event, query=record.query_id, **attrs)
        if record.run is not None:
            record.rounds = record.run.rounds
        if record.trace or record.trace_parent is not None:
            self._publish_spans(record)
        self.cluster.monitor.record_query(record)
        # a caller-owned transaction is released by reference only
        record.run = record.qplan = record.trans = None
        record.trace_parent = None
        record.memory_estimate = None
        del self._live[record.query_id]
        self._ring[record.query_id] = record
        self._c_logged.inc(state=record.state)
        while len(self._ring) > QUERY_RING_CAPACITY:
            self._ring.popitem(last=False)
            self._c_dropped.inc()

    # ------------------------------------------------------------- failover

    def on_node_failed(self, node: str) -> Dict[str, List[int]]:
        """Unwind queries hit by a worker loss; requeue those with budget.

        Called by :meth:`VectorHCluster.fail_node` before the worker set
        shrinks. Every running query's run caches the worker list of
        admission time, so each is unwound through the cancel path and
        requeued for re-dispatch on the survivors -- up to
        ``config.query_retry_budget`` times, after which it fails. A
        query on a caller-supplied transaction fails at once (the caller
        owns the snapshot).
        """
        budget = self.cluster.config.query_retry_budget
        requeued: List[int] = []
        failed: List[int] = []
        for qid in list(self._running):
            record = self._live[qid]
            if record.state != RUNNING or record.run is None:
                continue
            record.retries += 1
            if not record.own_txn or record.retries > budget:
                self._fail(record, ExecutionError(
                    f"worker {node} lost while query {qid} was running"
                    + ("" if record.own_txn else " (caller-owned snapshot)")
                ))
                failed.append(qid)
                continue
            record.run.cancel()
            record.run = None
            self._finish_own_txn(record, commit=False)
            record.trans = None
            record.own_txn = False
            record.state = QUEUED
            record.queue_reason = f"retry after {node} failed"
            self._release_running(record, finished=False)
            self._retried.inc()
            requeued.append(qid)
            self._emit("query.retry", query=qid, node=node,
                       attempt=record.retries)
        # front of each tenant's queue, preserving per-tenant FIFO order
        for qid in sorted(requeued, reverse=True):
            self.admission.enqueue(self._live[qid], front=True)
        return {"requeued": requeued, "failed": failed}

    def redispatch(self) -> None:
        """Re-admit after failover reshaped the cluster, with the queued
        queries' estimates refreshed for the surviving workers."""
        for record in self._live.values():
            if record.state == QUEUED:
                record.memory_estimate = estimate_query_memory(
                    self.cluster, record.qplan)
        self._admit()

    # --------------------------------------------------------------- gather

    def gather(self, query_id: int) -> QueryResult:
        """Drive rounds until the query is terminal; hand over its result.

        Other admitted queries make progress on the same rounds -- this
        is where interleaving actually happens when a client gathers
        while more submissions are outstanding. The result (or the
        failure's exception) is handed over exactly once: the record
        keeps only its summary, so a second gather -- or a gather after
        the record fell off the ring -- is an :class:`ExecutionError`.
        """
        record = self._live.get(query_id) or self._ring.get(query_id)
        if record is None:
            raise ExecutionError(
                f"unknown query id {query_id} (never submitted, or "
                "evicted from the terminal-record ring)")
        while record.state in (QUEUED, RUNNING):
            if not self.step() and record.state in (QUEUED, RUNNING):
                raise ExecutionError(
                    f"query {query_id} cannot make progress")
        if record.state in (FINISHED, FAILED):
            outcome = (record.result if record.state == FINISHED
                       else record.error)
            record.result = record.error = None
            if outcome is None:
                raise ExecutionError(
                    f"query {query_id} ({record.error_text or record.state})"
                    " was already gathered")
            if record.state == FAILED:
                raise outcome
            return outcome
        if record.cancel_reason == "timeout":
            raise QueryTimeout(query_id)
        raise QueryCancelled(query_id, record.cancel_reason or "cancelled")

    # ---------------------------------------------------------------- spans

    def _publish_spans(self, record: QueryRecord) -> None:
        """Assemble the query's lifecycle span tree from the record's
        timestamps (concurrent queries cannot nest on the tracer's
        stack): query -> rewrite, assignment, execute (build / schedule /
        exchange.flush + the operator profile grafted beside the latter
        two, which it decomposes), commit. It goes to the result
        (``trace=True``) and to the tracer span open at submission, or
        with none becomes the tracer's ``last_trace``."""
        cluster = self.cluster
        run = record.run
        now = _time.perf_counter()
        sim_now = self._clock.seconds
        tables = sorted({n.table for n in record.qplan.root.walk()
                         if isinstance(n, P.PScan)})
        attrs = {"query": record.query_id, "state": record.state}
        if record.statement:
            attrs["statement"] = record.statement
        root = Span("query", attrs=attrs,
                    wall_start=record.submit_wall, wall_end=now,
                    sim_start=record.submit_sim, sim_end=sim_now, children=[
            # planning runs between rounds: the simulated clock stands
            Span("rewrite", wall_start=record.submit_wall,
                 wall_end=record.plan_wall, sim_start=record.submit_sim,
                 sim_end=record.submit_sim),
            Span("assignment", wall_start=record.plan_wall,
                 wall_end=record.plan_wall, sim_start=record.submit_sim,
                 sim_end=record.submit_sim, attrs={
                     "tables": ",".join(tables) or "-",
                     "partitions": len(self._scan_parts(
                         record.qplan.root))}),
        ])
        if run is not None:
            exec_span = Span(
                "execute", attrs={"mode": run.qplan.flags.exchange_mode},
                wall_start=record.admit_wall, wall_end=now,
                sim_start=record.admit_sim, sim_end=sim_now)
            cursor = record.admit_wall
            for name, wall, attrs in (
                    ("build", run.build_wall, {}),
                    ("schedule", run.step_wall, {"rounds": run.rounds}),
                    ("exchange.flush", run.flush_wall,
                     {"exchanges": len(run.ctx.exchanges)})):
                # only scheduling advances the simulated clock
                exec_span.children.append(Span(
                    name, attrs=attrs,
                    wall_start=cursor, wall_end=cursor + wall,
                    sim_start=record.admit_sim,
                    sim_end=(sim_now if name == "schedule"
                             else record.admit_sim)))
                cursor += wall
            if record.result is not None:
                # the operator tree decomposes schedule + exchange.flush
                for prof in record.result.profiles:
                    span_from_profile(prof, exec_span,
                                      record.admit_wall + run.build_wall)
            root.children.append(exec_span)
        if record.state == FINISHED:
            root.children.append(Span(
                "commit", attrs={"implicit": record.own_txn},
                wall_start=now, wall_end=now,
                sim_start=sim_now, sim_end=sim_now))
        if record.trace and record.result is not None:
            record.result.trace = root
        if record.trace_parent is not None:
            record.trace_parent.children.append(root)
        else:
            cluster.tracer.last_trace = root
