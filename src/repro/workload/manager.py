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

Admission
---------
Per-tenant queues with weighted-fair (stride/WFQ) scheduling. Every
query belongs to a tenant (default: ``"default"``); within a tenant the
queue is strict FIFO, no bypass. Across tenants the next candidate is
the head of the eligible tenant with the smallest ``(priority, pass)``
key: admitting from a tenant advances its pass by ``STRIDE1 / weight``
(integer stride scheduling), so under saturation a tenant with twice
the weight is admitted twice as often -- proportional-share admission
that is bit-deterministic because passes are integers and ties break on
the tenant name. A tenant whose core quota (``max_concurrent``) or
per-node memory quota is exhausted is skipped (its head records the
quota as its queue reason); other tenants proceed.

The selected candidate is then admitted when (i) a *global* core slot
is free on every node -- one admitted query pins one core per node,
slots come from the dbAgent's negotiated footprint (slices * slice
cores), falling back to ``config.cores_per_node`` -- and (ii) its
conservative per-node memory estimate fits under
``workload_memory_budget_mb`` next to the *live* usage of the running
queries, measured by the shared :class:`MemoryMeter` every per-query
meter chains into. A globally blocked candidate blocks admission
entirely (no bypass -- fairness must not starve big queries); it is
force-admitted when nothing is running (a single over-budget query must
run alone, not deadlock the queue). With only the default tenant
registered this degenerates to exactly the old strict-FIFO behaviour.

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
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError, QueryCancelled, QueryTimeout
from repro.engine.exchange import (
    BatchCostModel,
    MemoryMeter,
    STREAMING,
    StreamScheduler,
)
from repro.mpp import plan as P
from repro.mpp.executor import QueryResult, QueryRun
from repro.mpp.plan import QueryPlan
from repro.mpp.rewriter import ParallelRewriter
from repro.obs import Counter, Span, span_from_profile

#: terminal queries kept (as one flat row each) for ``vh$queries`` and
#: the reports; the oldest falls off the ring and is
#: counted in ``query_log_dropped_total``
QUERY_RING_CAPACITY = 4096

QUEUED = "queued"
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"
CANCELLED = "cancelled"

#: headroom factor on plan-derived memory estimates (hash builds and
#: sort buffers hold input-sized state the plan walk cannot see exactly)
_ESTIMATE_SAFETY = 1.5

#: every submission without an explicit tenant lands here
DEFAULT_TENANT = "default"

#: stride scheduling quantum: a tenant's pass advances by
#: ``STRIDE1 // weight`` per admission, so relative admission rates
#: converge to the weight ratio using integer math only (bit-identical
#: twin runs need no floats in the scheduling state)
STRIDE1 = 1 << 20


def estimate_query_memory(cluster, phys: P.PhysNode,
                          thread_to_node: bool = True,
                          annotations=None) -> Dict[str, int]:
    """Conservative per-node byte estimate for admission control.

    Scans contribute twice the decompressed bytes of the table's largest
    partition (the streaming scan holds one partition plus its vector
    slices); each exchange contributes its allocated channel capacity
    (the paper's ``2 * n_lanes * message_size`` per link, the same math
    :func:`repro.net.mpi.dxchg_buffer_memory` captures) on every sender
    node plus one landing allowance on each destination. The total gets
    a safety factor for pipeline-breaker state.

    When ``annotations`` (a QueryPlan's per-node estimates) carries a
    *feedback-backed* cardinality for a scan, the estimate trusts the
    measured rows-out instead of the worst-case partition size -- so
    admission estimates tighten over repeated workloads.
    """
    workers = list(cluster.workers)
    per_node: Dict[str, int] = dict.fromkeys(workers, 0)
    master = cluster.session_master
    per_node.setdefault(master, 0)
    message_size = cluster.config.mpi_message_size
    n_lanes = 1 if thread_to_node else cluster.config.cores_per_node
    for node in phys.walk():
        if isinstance(node, P.PScan):
            table = cluster.table(node.table)
            if table.is_virtual:
                continue
            width = 8 * max(1, len(node.columns))
            ann = annotations.get(node) if annotations else None
            if ann is not None and ann.source == "feedback":
                per_part = ann.rows / max(1, table.n_partitions)
                for w in workers:
                    per_node[w] += 2 * int(max(per_part, 1.0)) * width
                continue
            biggest = max((p.n_stable for p in table.partitions), default=0)
            for w in workers:
                per_node[w] += 2 * biggest * width
        elif isinstance(node, P.DXchg):
            capacity = 2 * n_lanes * message_size * max(1, len(workers))
            for w in workers:
                per_node[w] += capacity
            per_node[master] += 2 * n_lanes * message_size
    return {n: int(_ESTIMATE_SAFETY * v) for n, v in per_node.items()}


@dataclass
class QueryRecord:
    """The one record of a query, from submission to eviction.

    While the query is queued or running it carries the plan, the
    snapshot transaction, the live run and the span tree under
    construction. Reaching a terminal state folds the summary scalars
    below into it (:meth:`FlightRecorder.record_query`) and drops every
    one of those references, so what stays in the manager's ring is a
    flat row of scalars and short strings. ``result`` / ``error`` wait
    for the first :meth:`WorkloadManager.gather` and are handed over.
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
    exchange_mode: str = STREAMING
    thread_to_node: bool = True
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
    admit_wall: float = 0.0
    admit_sim: float = 0.0
    finish_wall: float = 0.0
    finish_sim: float = 0.0
    wait_sim: float = 0.0
    root_span: Optional[Span] = None
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


class AdmissionController:
    """Decides whether the queue head may start now (strict FIFO).

    * **Core slots**: every running query pins one core per node; the
      per-node slot count comes from the footprint the dbAgent currently
      holds from YARN (slices * slice cores), falling back to the
      configured cores per node when no slices were negotiated.
    * **Memory**: the candidate's per-node estimate must fit under the
      budget next to the live usage of every running query, as measured
      by the shared meter.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        config = cluster.config
        #: per-node byte budget (None = unlimited)
        self.memory_budget_per_node: Optional[int] = (
            config.workload_memory_budget_mb * 1024 * 1024 or None)
        #: cap on admitted queries (0 = the negotiated core slots)
        self.max_concurrent: int = config.workload_max_concurrent

    def core_slots(self) -> int:
        if self.max_concurrent:
            return self.max_concurrent
        dbagent = self.cluster.dbagent
        if dbagent.slices:
            granted = [c for c in dbagent.current_footprint().values() if c]
            if granted:
                return min(granted)
        return self.cluster.config.cores_per_node

    def decide(self, record: QueryRecord, n_running: int,
               meter: MemoryMeter) -> Tuple[bool, str]:
        slots = self.core_slots()
        if n_running >= slots:
            return False, f"core slots exhausted ({n_running}/{slots})"
        if self.memory_budget_per_node is not None:
            for node, estimate in record.memory_estimate.items():
                live = meter.current.get(node, 0)
                if live + estimate > self.memory_budget_per_node:
                    return False, (
                        f"memory budget on {node}: live {live} + "
                        f"estimate {estimate} > "
                        f"{self.memory_budget_per_node}")
        return True, "ok"


@dataclass
class TenantState:
    """One tenant's admission queue, quotas and stride-scheduler state."""

    name: str
    #: proportional share under saturation (admission rate ~ weight)
    weight: int = 1
    #: tenants with a smaller priority value are always served first;
    #: WFQ applies among tenants of equal priority
    priority: int = 0
    #: cap on this tenant's concurrently running queries (0 = none)
    max_concurrent: int = 0
    #: per-node byte cap across the tenant's running queries (0 = none)
    memory_limit: int = 0
    #: stride-scheduler pass: smallest pass is served next
    pass_value: int = 0
    queue: deque = field(default_factory=deque)
    running: int = 0
    #: per-node estimate bytes charged by this tenant's running queries
    mem_by_node: Dict[str, int] = field(default_factory=dict)
    #: the registry counters that ``admitted`` / ``finished`` read
    admitted_total: Optional[Counter] = None
    finished_total: Optional[Counter] = None

    @property
    def admitted(self) -> int:
        """Queries ever admitted: a view over ``tenant_admitted_total``."""
        return int(self.admitted_total.get(tenant=self.name))

    @property
    def finished(self) -> int:
        """Queries that ran to a terminal state: a view over
        ``tenant_finished_total``."""
        return int(self.finished_total.get(tenant=self.name))

    def stride(self) -> int:
        return STRIDE1 // max(1, self.weight)


class WorkloadManager:
    """Concurrent, admission-controlled multi-query scheduling."""

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
        self.admission = AdmissionController(cluster)
        #: queued and running queries, by id
        self._live: Dict[int, QueryRecord] = {}
        #: terminal queries in completion order, oldest first; bounded
        #: by QUERY_RING_CAPACITY
        self._ring: "OrderedDict[int, QueryRecord]" = OrderedDict()
        #: per-tenant admission queues; insertion-ordered, tenant
        #: selection is by (priority, pass, name) so iteration order
        #: never matters for correctness -- only for determinism
        self.tenants: "OrderedDict[str, TenantState]" = OrderedDict()
        #: global stride clock: the pass of the last admitted tenant; a
        #: tenant waking from idle jumps its pass here, so sleeping
        #: never banks credit against active tenants
        self._wfq_clock = 0
        self._running: List[int] = []  # qids with a live QueryRun
        self._query_ids = itertools.count(1)
        #: callables invoked at the top of every :meth:`step` round (the
        #: chaos controller's tick hangs here; hooks may fail nodes and
        #: unwind running queries -- the round guards against both)
        self.round_hooks: List = []

        registry = cluster.registry
        self._g_queue = registry.gauge(
            "admission_queue_depth",
            "Queries waiting for core slots or memory budget", sticky=True)
        self._g_running = registry.gauge(
            "queries_running", "Queries currently admitted and interleaving",
            sticky=True)
        self._h_wait = registry.histogram(
            "query_wait_seconds",
            "Simulated seconds queries spent in the admission queue")
        self._retried = registry.counter(
            "queries_retried_total",
            "Queries transparently re-dispatched after losing a worker")
        self._g_t_queue = registry.gauge(
            "tenant_queue_depth", "Queries waiting, per tenant",
            labels=("tenant",), sticky=True)
        self._g_t_running = registry.gauge(
            "tenant_running", "Queries running, per tenant",
            labels=("tenant",), sticky=True)
        #: queue depth / core quota, published only for tenants with a
        #: quota -- the tenant_quota_saturated alert watches this and is
        #: inert (metric absent) on clusters without tenant quotas
        self._g_t_saturation = registry.gauge(
            "tenant_quota_saturation",
            "Tenant queue depth over its core quota (quota'd tenants only)",
            labels=("tenant",), sticky=True)
        self._c_t_admitted = registry.counter(
            "tenant_admitted_total", "Admitted queries, per tenant",
            labels=("tenant",))
        self._c_t_finished = registry.counter(
            "tenant_finished_total",
            "Admitted queries that reached a terminal state, per tenant",
            labels=("tenant",))
        self._c_logged = registry.counter(
            "query_log_records_total",
            "Terminal queries appended to the query log, by state",
            labels=("state",))
        self._c_dropped = registry.counter(
            "query_log_dropped_total",
            "Query-log records dropped by the retention cap")
        self._g_queue.set(0)
        self._g_running.set(0)
        self.register_tenant(DEFAULT_TENANT)

    # ------------------------------------------------------------ plumbing

    @property
    def _clock(self):
        return self.cluster.sim_clock

    def _emit(self, kind: str, **attrs) -> None:
        self.cluster.events.emit("workload", kind, **attrs)

    def _update_gauges(self) -> None:
        self._g_queue.set(self.queued_count())
        self._g_running.set(len(self._running))
        for tenant in self.tenants.values():
            self._g_t_queue.set(len(tenant.queue), tenant=tenant.name)
            self._g_t_running.set(tenant.running, tenant=tenant.name)
            if tenant.max_concurrent:
                self._g_t_saturation.set(
                    len(tenant.queue) / tenant.max_concurrent,
                    tenant=tenant.name)

    def queued_count(self) -> int:
        return sum(len(t.queue) for t in self.tenants.values())

    def queued_ids(self) -> List[int]:
        """All waiting query ids, in global submission order."""
        return sorted(qid for t in self.tenants.values() for qid in t.queue)

    def load(self) -> Dict[str, int]:
        """Live load probe: what the dbAgent's automatic footprint sees."""
        streams_per_query = max(1, len(self.cluster.workers))
        return {
            "queued": self.queued_count(),
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

    # -------------------------------------------------------------- tenants

    def register_tenant(self, name: str, weight: int = 1, priority: int = 0,
                        max_concurrent: int = 0,
                        memory_limit: int = 0) -> TenantState:
        """Create (or reconfigure) a tenant's queue, weight and quotas.

        ``weight`` sets the proportional admission share under
        saturation; ``priority`` overrides WFQ entirely (smaller values
        are served strictly first); ``max_concurrent`` caps the tenant's
        running queries and ``memory_limit`` caps the per-node estimate
        bytes of its running set. Idempotent: re-registering updates the
        configuration in place without touching queued work.
        """
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(name=name, pass_value=self._wfq_clock,
                                admitted_total=self._c_t_admitted,
                                finished_total=self._c_t_finished)
            self.tenants[name] = state
        state.weight = max(1, int(weight))
        state.priority = int(priority)
        state.max_concurrent = int(max_concurrent)
        state.memory_limit = int(memory_limit)
        self._update_gauges()
        return state

    # --------------------------------------------------------------- submit

    def submit(self, plan, flags=None, trans=None,
               timeout: Optional[float] = None,
               exchange_mode: str = STREAMING,
               thread_to_node: bool = True,
               trace: bool = False,
               memory_estimate: Optional[Dict[str, int]] = None,
               session: int = 0,
               statement: Optional[str] = None,
               tenant: str = DEFAULT_TENANT,
               fingerprint: str = "") -> int:
        """Plan a query and enqueue it; returns the query id.

        ``plan`` is a logical plan, rewritten here under ``flags``, or
        an already-planned :class:`~repro.mpp.plan.QueryPlan`, used
        as is. Submission is cheap: the plan is rewritten and estimated,
        then queued. Execution happens in :meth:`step` rounds, normally
        driven from :meth:`gather`. ``timeout`` is a simulated-seconds
        budget measured from submission; ``memory_estimate`` overrides
        the plan-derived per-node admission estimate. ``tenant`` routes
        the query to that tenant's admission queue (unknown tenants are
        auto-registered with weight 1). ``session`` is the submitting
        server connection's id (0 for a library call). ``fingerprint``
        overrides the query log's statement fingerprint so all
        executions of one prepared statement aggregate as a single entry.
        """
        cluster = self.cluster
        qid = next(self._query_ids)
        wall0 = _time.perf_counter()
        sim0 = self._clock.seconds
        parent = cluster.tracer.current
        if statement is None and parent is not None:
            statement = str(parent.attrs.get("statement", ""))

        qplan = (plan if isinstance(plan, QueryPlan)
                 else ParallelRewriter(cluster, flags).plan(plan))
        phys = qplan.root
        wall1 = _time.perf_counter()
        sim1 = self._clock.seconds
        tables = sorted({n.table for n in phys.walk()
                         if isinstance(n, P.PScan)})
        root = Span("query", attrs={"query": qid},
                    wall_start=wall0, sim_start=sim0, children=[
            Span("rewrite", wall_start=wall0, wall_end=wall1,
                 sim_start=sim0, sim_end=sim1),
            Span("assignment", wall_start=wall1, wall_end=wall1,
                 sim_start=sim1, sim_end=sim1, attrs={
                     "tables": ",".join(tables) or "-",
                     "partitions": sum(cluster.table(t).n_partitions
                                       for t in tables)}),
        ])

        record = QueryRecord(
            query_id=qid, session_id=session, qplan=qplan,
            statement=statement or "",
            tenant=tenant, fingerprint=fingerprint,
            root_label=parent.name if parent is not None else "query",
            exchange_mode=exchange_mode, thread_to_node=thread_to_node,
            trace=trace, timeout=timeout, trans=trans,
            memory_estimate=(memory_estimate if memory_estimate is not None
                             else estimate_query_memory(
                                 cluster, phys, thread_to_node,
                                 annotations=qplan.annotations)),
            submit_wall=wall0, submit_sim=sim0,
            root_span=root, trace_parent=parent,
        )
        self._live[qid] = record
        state = self.tenants.get(tenant)
        if state is None:
            state = self.register_tenant(tenant)
        if not state.queue and state.running == 0:
            # waking from idle: no banked credit against active tenants
            state.pass_value = max(state.pass_value, self._wfq_clock)
        state.queue.append(qid)
        self._emit("query.queued", query=qid, session=session, tenant=tenant)
        self._admit()
        self._update_gauges()
        return qid

    # ------------------------------------------------------------ admission

    def _admit(self) -> None:
        """Admit WFQ-selected tenant heads while they fit globally.

        Tenant selection is weighted-fair (see the module docstring);
        within the chosen tenant the head is strict FIFO, no bypass. A
        candidate blocked by *global* core slots or memory stops
        admission for everyone this round (fairness must not starve big
        queries); a candidate blocked by its own *tenant* quota only
        sidelines that tenant, the others keep going.
        """
        while True:
            tenant = self._next_tenant()
            if tenant is None:
                break
            record = self._live[tenant.queue[0]]
            ok, reason = self.admission.decide(
                record, len(self._running), self.meter)
            if not ok and self._running:
                record.queue_reason = reason
                break
            tenant.queue.popleft()
            self._wfq_clock = tenant.pass_value
            tenant.pass_value += tenant.stride()
            self._start(record, forced=not ok)
        self._update_gauges()

    def _next_tenant(self) -> Optional[TenantState]:
        """The eligible tenant with the smallest (priority, pass, name)."""
        best = None
        best_key = None
        for tenant in self.tenants.values():
            if not tenant.queue:
                continue
            blocked = self._tenant_blocked(tenant)
            if blocked:
                self._live[tenant.queue[0]].queue_reason = blocked
                continue
            key = (tenant.priority, tenant.pass_value, tenant.name)
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        return best

    def _tenant_blocked(self, tenant: TenantState) -> str:
        """Why this tenant's quotas sideline it now ("" = eligible).

        Quotas only bite while the tenant has something running: a
        tenant whose lone head exceeds its own memory quota is admitted
        anyway (mirroring the global force-admit rule -- a quota must
        throttle a tenant, never wedge it).
        """
        if tenant.max_concurrent and \
                tenant.running >= tenant.max_concurrent:
            return (f"tenant {tenant.name} core quota exhausted "
                    f"({tenant.running}/{tenant.max_concurrent})")
        if tenant.memory_limit and tenant.running:
            head = self._live[tenant.queue[0]]
            for node, estimate in head.memory_estimate.items():
                used = tenant.mem_by_node.get(node, 0)
                if used + estimate > tenant.memory_limit:
                    return (f"tenant {tenant.name} memory quota on {node}: "
                            f"{used} + {estimate} > {tenant.memory_limit}")
        return ""

    def _start(self, record: QueryRecord, forced: bool = False) -> None:
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
            record.qplan,
            trans=record.trans,
            scheduler=self.scheduler,
            meter=self.meter,
            exchange_mode=record.exchange_mode,
            thread_to_node=record.thread_to_node,
            query_id=record.query_id,
        )
        self._running.append(record.query_id)
        tenant = self.tenants[record.tenant]
        tenant.running += 1
        for node, estimate in record.memory_estimate.items():
            tenant.mem_by_node[node] = (
                tenant.mem_by_node.get(node, 0) + estimate)
        self._c_t_admitted.inc(tenant=record.tenant)
        self._emit("query.admitted", query=record.query_id,
                   wait=round(record.wait_sim, 9), forced=forced,
                   tenant=record.tenant)

    def _scan_parts(self, phys: P.PhysNode):
        seen = set()
        for node in phys.walk():
            if isinstance(node, P.PScan):
                table = self.cluster.table(node.table)
                if table.is_virtual:
                    continue
                for pid in range(table.n_partitions):
                    seen.add((node.table, pid))
        return sorted(seen)

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
        self._update_gauges()
        return True

    def drain(self) -> None:
        """Step until every submitted query reached a terminal state."""
        while self.step():
            pass

    def _check_timeouts(self) -> None:
        clock = self._clock.seconds
        # only live queries can time out; submission order, so twin runs
        # cancel in the same sequence
        for qid in sorted(self.queued_ids() + self._running):
            record = self._live[qid]
            if record.timeout is not None and \
                    clock - record.submit_sim > record.timeout:
                self.cancel(qid, reason="timeout")

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
        result.wait_sim_seconds = record.wait_sim
        record.result = result
        if record.trace:
            result.trace = record.root_span  # sealed in place by _close
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
            self.tenants[record.tenant].queue.remove(query_id)
        else:
            record.run.cancel()
        self._finish_own_txn(record, commit=False)
        record.cancel_reason = reason
        self._close(record, CANCELLED, "query.cancelled", reason=reason)
        self._admit()  # the freed slot may unblock the queue
        self._update_gauges()
        return True

    def _release_running(self, record: QueryRecord,
                         finished: bool = True) -> None:
        """Drop a query from the running set and its tenant's accounting."""
        self._running.remove(record.query_id)
        tenant = self.tenants[record.tenant]
        tenant.running -= 1
        if finished:
            self._c_t_finished.inc(tenant=record.tenant)
        for node, estimate in record.memory_estimate.items():
            remaining = tenant.mem_by_node.get(node, 0) - estimate
            if remaining > 0:
                tenant.mem_by_node[node] = remaining
            else:
                tenant.mem_by_node.pop(node, None)

    def _close(self, record: QueryRecord, state: str, event: str,
               **attrs) -> None:
        """Terminal bookkeeping: stamp the state and both clocks, free
        the slot, emit ``event``, publish the span tree, fold the summary
        scalars into the record, let go of everything else and move the
        record from the live set to the ring."""
        record.state = state
        record.finish_wall = _time.perf_counter()
        record.finish_sim = self._clock.seconds
        if record.query_id in self._running:
            self._release_running(record)
        self._update_gauges()
        self._emit(event, query=record.query_id, **attrs)
        if record.run is not None:
            record.rounds = record.run.rounds
        self._seal_spans(record)
        self.cluster.monitor.record_query(record)
        # a caller-owned transaction is released by reference only
        record.run = record.qplan = record.trans = None
        record.root_span = record.trace_parent = None
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
        shrinks. Every running query's prepared run caches the worker
        list and session master of admission time, so all of them are
        unwound through the cancel path (operators closed, DXchg buffers
        dropped, memory released, snapshot txn abandoned) and requeued in
        submission order for transparent re-dispatch on the survivors --
        up to ``config.query_retry_budget`` times, after which the query
        fails. Queries on a caller-supplied transaction cannot be
        silently retried (the caller owns the snapshot) and fail at once.
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
            tenant = self.tenants[self._live[qid].tenant]
            tenant.queue.appendleft(qid)
        self._update_gauges()
        return {"requeued": requeued, "failed": failed}

    def redispatch(self) -> None:
        """Re-admit after failover reshaped the cluster.

        Admission estimates were computed against the old worker set;
        refresh them so queued queries are judged against the survivors.
        """
        for qid in self.queued_ids():
            record = self._live[qid]
            record.memory_estimate = estimate_query_memory(
                self.cluster, record.qplan.root, record.thread_to_node,
                annotations=record.qplan.annotations)
        self._admit()
        self._update_gauges()

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

    def _seal_spans(self, record: QueryRecord) -> None:
        """Assemble the query's lifecycle span tree and publish it.

        Concurrent queries cannot nest on the tracer's stack, so the
        tree is put together here from the record's timestamps: query ->
        rewrite, assignment, execute (build / schedule / exchange.flush
        + the operator profile grafted beside the latter two, which it
        decomposes), commit.
        """
        root = record.root_span
        run = record.run
        now = _time.perf_counter()
        sim_now = self._clock.seconds
        if run is not None:
            exec_span = Span("execute", attrs={"mode": record.exchange_mode},
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
        root.attrs["state"] = record.state
        if record.statement:
            root.attrs.setdefault("statement", record.statement)
        root.wall_end = now
        root.sim_end = sim_now
        if record.trace_parent is not None:
            record.trace_parent.children.append(root)
        else:
            self.cluster.tracer.last_trace = root
