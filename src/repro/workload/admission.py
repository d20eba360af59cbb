"""The admission policy: which queued query starts next, and when.

VectorH admits queries against the footprint the dbAgent negotiates
"based on query load" (paper §4). This module owns that decision and
knows a query only by its id, tenant and per-node memory estimate, never
by how it runs; the run loop (:mod:`repro.workload.manager`) reports
every queue change and asks :meth:`AdmissionPolicy.next_admission` what
may start.

Every query belongs to a tenant (default ``"default"``) whose queue is
strict FIFO. Across tenants the candidate is the head of the eligible
tenant with the smallest ``(priority, pass, name)``: admitting from a
tenant advances its pass by ``STRIDE1 // weight`` (integer stride
scheduling), so under saturation twice the weight is admitted twice as
often, bit-deterministically. A tenant at its core quota
(``max_concurrent``) is skipped. The candidate then starts if a core
slot is free (``config.workload_max_concurrent``, else the dbAgent's
footprint, else ``config.cores_per_node``) and its estimate fits under
``config.workload_memory_budget_mb`` next to the live usage in the
shared meter -- both read when deciding. A candidate the cluster cannot
take blocks everyone (no bypass: fairness must not starve big queries)
unless nothing runs, when it is forced through alone.

The queues are the one store of who waits and ``tenant_running`` the one
count of what runs per tenant (``TenantState.running`` reads it); the
queue, running and saturation gauges are set where the state changes,
and :mod:`repro.chaos.invariants` checks them against the live queries.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.mpp import plan as P
from repro.mpp.plan import QueryPlan
from repro.obs import Counter, Gauge

#: every submission without an explicit tenant lands here
DEFAULT_TENANT = "default"

#: stride scheduling quantum: a tenant's pass advances by
#: ``STRIDE1 // weight`` per admission, so relative admission rates
#: converge to the weight ratio using integer math only (bit-identical
#: twin runs need no floats in the scheduling state)
STRIDE1 = 1 << 20

#: headroom factor on plan-derived memory estimates (hash builds and
#: sort buffers hold input-sized state the plan walk cannot see exactly)
_ESTIMATE_SAFETY = 1.5


def estimate_query_memory(cluster, qplan: QueryPlan) -> Dict[str, int]:
    """Conservative per-node byte estimate for admission control.

    Scans contribute twice the decompressed bytes of the table's largest
    partition the scan reaches (one partition plus its vector slices),
    or of a *feedback-backed* cardinality when the plan has one, so
    estimates tighten over repeated workloads -- on every worker, or only
    on the nodes answering a pruned scan's pids; each exchange its
    channel capacity (``2 * n_lanes * message_size`` per link, as
    :func:`repro.net.mpi.dxchg_buffer_memory`, ``n_lanes`` from
    ``qplan.flags.thread_to_node``) on every sender plus one landing
    allowance per destination; then a safety factor for
    pipeline-breaker state.
    """
    workers = list(cluster.workers)
    per_node: Dict[str, int] = dict.fromkeys(workers, 0)
    master = cluster.session_master
    per_node.setdefault(master, 0)
    message_size = cluster.config.mpi_message_size
    n_lanes = (1 if qplan.flags.thread_to_node
               else cluster.config.cores_per_node)
    for node in qplan.root.walk():
        if isinstance(node, P.PScan):
            table = cluster.table(node.table)
            if table.is_virtual:
                continue
            width = 8 * max(1, len(node.columns))
            parts, nodes = table.partitions, workers
            if node.partitions is not None:
                owners = cluster.placement.owners(node.table)
                parts = [table.partitions[pid] for pid in node.partitions]
                nodes = {owners[pid] for pid in node.partitions}
            ann = qplan.annotations.get(node)
            if ann is not None and ann.source == "feedback":
                reached = (table.n_partitions if node.partitions is None
                           else len(parts))
                held = int(max(ann.rows / max(1, reached), 1.0))
            else:
                held = max((p.n_stable for p in parts), default=0)
            for w in nodes:
                per_node[w] += 2 * held * width
        elif isinstance(node, P.DXchg):
            capacity = 2 * n_lanes * message_size * max(1, len(workers))
            for w in workers:
                per_node[w] += capacity
            per_node[master] += 2 * n_lanes * message_size
    return {n: int(_ESTIMATE_SAFETY * v) for n, v in per_node.items()}


@dataclass
class TenantState:
    """One tenant's admission queue, quota and stride-scheduler state."""

    name: str
    #: proportional share under saturation (admission rate ~ weight)
    weight: int = 1
    #: tenants with a smaller priority value are always served first;
    #: WFQ applies among tenants of equal priority
    priority: int = 0
    #: cap on this tenant's concurrently running queries (0 = none)
    max_concurrent: int = 0
    #: stride-scheduler pass: smallest pass is served next
    pass_value: int = 0
    #: waiting query ids, FIFO
    queue: deque = field(default_factory=deque)
    #: the registry series ``running`` / ``admitted`` / ``finished`` read
    running_gauge: Optional[Gauge] = None
    admitted_total: Optional[Counter] = None
    finished_total: Optional[Counter] = None

    @property
    def running(self) -> int:
        """Queries running now: a view over ``tenant_running``."""
        return int(self.running_gauge.get(tenant=self.name))

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


class AdmissionPolicy:
    """Tenant queues, the WFQ pick and every admission check."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: per-tenant queues; selection is by (priority, pass, name), so
        #: insertion order matters for determinism only
        self.tenants: "OrderedDict[str, TenantState]" = OrderedDict()
        #: global stride clock: the pass of the last admitted tenant; a
        #: tenant waking from idle jumps its pass here, so sleeping
        #: never banks credit against active tenants
        self._wfq_clock = 0
        registry = cluster.registry
        self._g_queue = registry.gauge(
            "admission_queue_depth",
            "Queries waiting for core slots or memory budget", sticky=True)
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
        self.register_tenant(DEFAULT_TENANT)

    # -------------------------------------------------------------- tenants

    def register_tenant(self, name: str, weight: int = 1, priority: int = 0,
                        max_concurrent: int = 0) -> TenantState:
        """Create (or reconfigure, keeping its queue) a tenant.

        ``weight`` sets the proportional admission share under
        saturation; ``priority`` overrides WFQ entirely (smaller values
        are served strictly first); ``max_concurrent`` caps the tenant's
        running queries. A new tenant publishes its zero series.
        """
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(name=name, pass_value=self._wfq_clock,
                                running_gauge=self._g_t_running,
                                admitted_total=self._c_t_admitted,
                                finished_total=self._c_t_finished)
            self.tenants[name] = state
            self._g_t_running.set(0, tenant=name)
        state.weight = max(1, int(weight))
        state.priority = int(priority)
        state.max_concurrent = int(max_concurrent)
        self._queue_changed(state)
        return state

    # -------------------------------------------------------------- queues

    def _queue_changed(self, tenant: TenantState) -> None:
        self._g_queue.set(sum(len(t.queue) for t in self.tenants.values()))
        self._g_t_queue.set(len(tenant.queue), tenant=tenant.name)
        if tenant.max_concurrent:
            self._g_t_saturation.set(
                len(tenant.queue) / tenant.max_concurrent,
                tenant=tenant.name)

    def enqueue(self, record, front: bool = False) -> None:
        """Queue a query at the back of its tenant's queue (unknown
        tenants are registered with weight 1), or at the front when a
        failover unwound it."""
        tenant = (self.tenants.get(record.tenant)
                  or self.register_tenant(record.tenant))
        if front:
            tenant.queue.appendleft(record.query_id)
        else:
            if not tenant.queue and tenant.running == 0:
                # waking from idle: no banked credit against active tenants
                tenant.pass_value = max(tenant.pass_value, self._wfq_clock)
            tenant.queue.append(record.query_id)
        self._queue_changed(tenant)

    def withdraw(self, record) -> None:
        """A queued query was cancelled: it leaves its tenant's queue."""
        tenant = self.tenants[record.tenant]
        tenant.queue.remove(record.query_id)
        self._queue_changed(tenant)

    def release(self, record, finished: bool = True) -> None:
        """A running query stopped, for good or to be requeued."""
        self._g_t_running.dec(tenant=record.tenant)
        if finished:
            self._c_t_finished.inc(tenant=record.tenant)

    # ------------------------------------------------------------ deciding

    def next_admission(self, live, n_running: int,
                       meter) -> Optional[Tuple[object, bool]]:
        """Pop the record (from ``live``, by query id) that starts now,
        with whether the cluster limits were waived because nothing runs;
        None when nothing may start."""
        tenant = self._next_tenant(live)
        if tenant is None:
            return None
        record = live[tenant.queue[0]]
        blocked = self._cluster_blocked(record, n_running, meter)
        if blocked and n_running:
            record.queue_reason = blocked
            return None
        tenant.queue.popleft()
        self._queue_changed(tenant)
        self._wfq_clock = tenant.pass_value
        tenant.pass_value += tenant.stride()
        self._g_t_running.inc(tenant=tenant.name)
        self._c_t_admitted.inc(tenant=tenant.name)
        return record, bool(blocked)

    def _next_tenant(self, live) -> Optional[TenantState]:
        """The eligible tenant with the smallest (priority, pass, name);
        a quota throttles a tenant and never wedges it."""
        best = None
        best_key = None
        for tenant in self.tenants.values():
            if not tenant.queue:
                continue
            running = tenant.running
            if tenant.max_concurrent and running >= tenant.max_concurrent:
                live[tenant.queue[0]].queue_reason = (
                    f"tenant {tenant.name} core quota exhausted "
                    f"({running}/{tenant.max_concurrent})")
                continue
            key = (tenant.priority, tenant.pass_value, tenant.name)
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        return best

    def _cluster_blocked(self, record, n_running: int, meter) -> str:
        """Why the cluster cannot start ``record`` now ("" = it can)."""
        config, dbagent = self.cluster.config, self.cluster.dbagent
        # the configured cap, else the footprint the dbAgent holds
        slots = config.workload_max_concurrent
        if not slots and dbagent.slices:
            slots = min((c for c in dbagent.current_footprint().values()
                         if c), default=0)
        slots = slots or config.cores_per_node
        if n_running >= slots:
            return f"core slots exhausted ({n_running}/{slots})"
        budget = config.workload_memory_budget_mb * (1 << 20)
        if budget:
            for node, estimate in record.memory_estimate.items():
                live = meter.current.get(node, 0)
                if live + estimate > budget:
                    return (f"memory budget on {node}: live {live} + "
                            f"estimate {estimate} > {budget}")
        return ""
