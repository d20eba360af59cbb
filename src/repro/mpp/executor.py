"""Executes distributed physical plans over the simulated cluster.

Streaming execution core: the whole physical plan -- including exchange
nodes -- is composed into *one* operator tree per consuming stream.
Exchange boundaries are crossed by :class:`~repro.engine.exchange.Exchange`
operator pairs (sender/receiver) that push batch bytes through per-link
:class:`~repro.net.mpi.DXchgChannel` buffers, flushing whole MPI messages
as the buffers fill; nothing is materialized between fragments.  A
:class:`~repro.engine.exchange.StreamScheduler` advances the sender
fragments round-robin, one vector at a time, and charges simulated time
for the slowest stream of each round -- the behaviour of a cluster whose
streams run concurrently.

Reported timings: ``elapsed`` is real single-process wall time;
``simulated_parallel_seconds`` is the scheduler's round-based clock.
``peak_node_memory`` is measured per node from live DXchg buffer
occupancy, receive queues, scan buffers and pipeline-breaker operator
state (hash builds, sort buffers) -- not derived from the ``2*N*C``
formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.engine.batch import (
    Batch,
    concat_batches,
    full_vectors,
    hash_inputs,
    materialized,
)
from repro.engine.exchange import (
    DONE,
    Exchange,
    MemoryMeter,
    StreamScheduler,
)
from repro.engine.operators import (
    HashAggr,
    HashJoin,
    Limit,
    MergeJoin,
    Operator,
    Project,
    Select,
    Sort,
    TopN,
)
from repro.engine.profile import ProfileNode, format_profile
from repro.mpp import plan as P
from repro.mpp.plan import ExchangeDecision, QueryPlan, ReplanSignal
from repro.mpp.rewriter import ParallelRewriter

MASTER_STREAM = "__master__"

#: besides its operator, a plan node has a profile node for each half of
#: an exchange and for the replay of a replicated subtree
RECV, SEND, REPLAY = "recv", "send", "replay"

#: q-error (actual/estimate) of an exchange decision's live cardinality
#: that makes a running query consider a mid-query re-plan
REPLAN_QERROR_THRESHOLD = 10.0
#: per-query cap on mid-query re-plans
MAX_REPLANS_PER_QUERY = 2


@dataclass
class QueryResult:
    batch: Batch
    elapsed: float
    simulated_parallel_seconds: float
    network_bytes: int
    network_messages: int
    bytes_read: int
    #: the plan annotated with what ran (one tree, rooted at the plan
    #: root's node): a node per plan node whose operator started
    profiles: List[ProfileNode] = field(default_factory=list)
    #: the same nodes by ``(plan node, role)``
    plan_profiles: Dict[Tuple[P.PhysNode, str], ProfileNode] = field(
        default_factory=dict)
    #: measured peak resident bytes per node (operator state + DXchg
    #: buffers + receive queues), from the run's MemoryMeter
    peak_node_memory: Dict[str, int] = field(default_factory=dict)
    #: per-exchange statistics dicts (label, bytes, messages, tuples,
    #: peak_buffered_bytes, peak_queued_bytes, buffer_capacity_bytes,
    #: and ``plan``, the exchange's plan node)
    exchanges: List[Dict[str, object]] = field(default_factory=list)
    #: lifecycle span tree (set when the query ran with ``trace=True``)
    trace: Optional[Span] = None
    #: scheduler rounds this query's root stream took to drain
    rounds: int = 0
    #: mid-query re-plans (accounting above is summed across attempts)
    replans: int = 0
    #: the plan that produced ``batch`` -- after a re-plan, the final one
    qplan: Optional[QueryPlan] = None
    #: worst per-operator q-error against ``qplan``'s estimates
    #: (1.0 = perfect, 0.0 = nothing annotated)
    max_qerror: float = 0.0
    #: ``(kind, share)`` of the operator kind dominating the query's
    #: wall, left by the profiler's walk of ``profiles``
    dominant: Tuple[str, float] = ("", 0.0)
    #: workload-manager id
    query_id: Optional[int] = None

    @property
    def plan_text(self) -> str:
        """The physical plan that produced ``batch``, rendered on read."""
        return self.qplan.root.pretty() if self.qplan is not None else ""

    def format_profile(self) -> str:
        return "\n".join(format_profile(p) for p in self.profiles)

    def profile_of(self, phys: P.PhysNode) -> Optional[ProfileNode]:
        """What this plan node's operator did, summed over its streams
        (an exchange's receiving half); None when it never started."""
        return (self.plan_profiles.get((phys, ""))
                or self.plan_profiles.get((phys, RECV)))

    def simulated_total_seconds(self,
                                network_bandwidth: float = 1.25e9) -> float:
        """Compute time (slowest stream per round) plus network time at
        the given per-link bandwidth (default: 10Gb Ethernet, the paper's
        cluster)."""
        return (self.simulated_parallel_seconds
                + self.network_bytes / network_bandwidth)

    @property
    def peak_memory_bytes(self) -> int:
        """Largest per-node peak across the cluster."""
        return max(self.peak_node_memory.values(), default=0)

    @property
    def dxchg_peak_buffered_bytes(self) -> int:
        """Peak bytes held in sender channel buffers, summed per exchange.

        This is the measured counterpart of the paper's DXchg
        buffer-memory formula: it depends on message size and fanout,
        not on the exchanged data volume.
        """
        return sum(int(ex["peak_buffered_bytes"]) for ex in self.exchanges)

    @property
    def dxchg_peak_queued_bytes(self) -> int:
        """Peak bytes parked in receive queues, summed per exchange.

        Schedule-dependent: the streaming pump keeps queues about one
        round deep, while stop-and-go materialization parks each
        fragment's entire output here before the consumer starts.
        """
        return sum(int(ex["peak_queued_bytes"]) for ex in self.exchanges)

    @property
    def exchange_messages(self) -> int:
        return sum(int(ex["messages"]) for ex in self.exchanges)


def _hash_to_streams(batch: Batch, keys, workers: List[str]) -> np.ndarray:
    """Generic DXchg hash: Knuth-mixed so it scatters independently of any
    table's partition function (aligned routing goes through the table's
    own partition_ids instead)."""
    h = np.zeros(batch.n, dtype=np.int64)
    for key in keys:
        h = ((h + hash_inputs(batch.columns[key])) * 2654435761) & 0x7FFFFFFF
    return h % len(workers)


class _RunContext:
    """State of one build of a query's operator tree.

    Exchanges, shared replays and profile nodes are keyed on the plan
    node *objects* -- the plan root keeps them alive for the duration, so
    no id reuse is possible. A re-plan builds a fresh context.
    """

    def __init__(self, trans, mode: str, n_lanes: int, vector_size: int,
                 scheduler: StreamScheduler, meter: MemoryMeter,
                 workers: List[str], session_master: str):
        self.trans = trans
        self.mode = mode
        self.n_lanes = n_lanes
        self.vector_size = vector_size
        #: worker set and master *snapshotted at build time*: a failover
        #: may reshape the cluster while this run is suspended, and a
        #: half-built run mixing old and new worker lists would be
        #: internally inconsistent. The workload manager unwinds and
        #: re-prepares affected runs; this snapshot makes the hazard
        #: impossible even for runs it misses.
        self.workers: List[str] = list(workers)
        self.session_master = session_master
        #: the workload manager's cluster-wide scheduler
        self.scheduler = scheduler
        #: this build's meter, chained into the cluster-wide one
        self.meter = meter
        #: in creation order: outer exchanges before the ones below them
        self.exchanges: Dict[P.PhysNode, Exchange] = {}
        self.replays: Dict[P.PhysNode, "_SharedReplay"] = {}
        #: the one profile node of each ``(plan node, role)``, filled by
        #: that plan node's operator on every stream
        self.profiles: Dict[Tuple[P.PhysNode, str], ProfileNode] = {}
        #: per key-filtered ``(scan, stream)``, where the join above it on
        #: that stream leaves its finished build's membership test
        self.key_slots: Dict[Tuple[P.PScan, str], list] = {}


class StreamingScan(Operator):
    """Leaf: scans this stream's partitions lazily, one at a time, and
    hands each piece of one (a block of the coarsest column it reads,
    :meth:`~repro.storage.table.StoredTable.scan_pieces`) on as one
    vector -- the scan is part of the pipeline, not a pre-materialized
    island. Pieces a selective filter left short of ``vector_size`` are
    joined into full vectors, as ``Select`` joins its own. While a piece
    is out, the memory meter carries what the partition's scan keeps for
    the pieces after it."""

    def __init__(self, cluster, phys: P.PScan, node: str, ctx: _RunContext):
        super().__init__(())
        self.cluster = cluster
        self.phys = phys
        self.node = node
        self.ctx = ctx
        #: filled by this stream's join over a key-filtered scan when its
        #: build is finished -- before it first pulls from here
        self.key_slot: list = []

    def describe(self):
        return self.phys.describe()

    def _typed_empty(self) -> Batch:
        """Zero-row batch with engine dtypes."""
        schema = self.cluster.table(self.phys.table).schema
        return Batch({name: np.empty(0, dtype=schema.ctype(name).engine_dtype)
                      for name in self.phys.columns}, 0)

    def _run(self):
        return full_vectors(self._pieces(), self.vector_size)

    def _pieces(self):
        cluster = self.cluster
        phys = self.phys
        table = cluster.table(phys.table)
        trans = self.ctx.trans
        yielded = False
        keyed = ({"key_filter": (phys.key_filter, self.key_slot[0])}
                 if self.key_slot else {})
        # a replicated table is scanned once, on whichever stream its
        # plan put it; a partitioned one by the node answering each pid
        # the scan reaches
        pids = (range(table.n_partitions) if phys.partitions is None
                else phys.partitions)
        if not table.is_replicated:
            owners = cluster.placement.owners(phys.table)
            pids = [pid for pid in pids if owners[pid] == self.node]
        meter = self.memory_meter
        for pid in pids:
            pieces = table.scan_pieces(
                pid, phys.columns, phys.skip_predicates,
                trans=(trans.trans_for(phys.table, pid)
                       if trans and not table.is_virtual else None),
                reader=self.node, pool=cluster.pool_of(self.node), **keyed,
            )
            try:
                for res in pieces:
                    self.profile.key_filtered += res.key_filtered
                    if meter is not None and res.held:
                        meter.hold(self.memory_node, res.held)
                    try:
                        yielded = True
                        yield Batch(res.columns, res.n_rows)
                    finally:
                        if meter is not None and res.held:
                            meter.release(self.memory_node, res.held)
            finally:
                pieces.close()
        if not yielded:
            # this node owns no partitions: the schema must still flow
            # downstream
            yield self._typed_empty()


class _SharedReplay:
    """Compute a replicated subtree once (on its home stream) and replay
    the recorded vectors to every consuming stream -- replicated inputs
    are identical everywhere, so only one stream pays the compute and IO,
    exactly like the old compute-once fragment rule."""

    def __init__(self, op: Operator, scheduler: StreamScheduler):
        self.op = op
        self.scheduler = scheduler
        self.batches: Optional[List[Batch]] = None

    def materialize(self) -> List[Batch]:
        if self.batches is None:
            recorded: List[Batch] = []
            iterator = self.op.execute()
            while True:
                item, dt = self.scheduler.advance(iterator)
                self.scheduler.charge_round([dt])
                if item is DONE:
                    break
                recorded.append(item)
            self.batches = recorded
        return self.batches


class ReplaySource(Operator):
    """One consuming stream's view of a :class:`_SharedReplay`."""

    def __init__(self, shared: _SharedReplay, label: str):
        super().__init__(())
        self.shared = shared
        self.label = label

    def _run(self):
        for batch in self.shared.materialize():
            yield batch


class QueryRun:
    """One admitted query: its operator tree, suspended between rounds.

    :meth:`MppExecutor.prepare` returns one of these; each :meth:`step`
    pulls exactly one item from the root stream through the scheduler
    (one round), so the workload manager can interleave many live
    queries on its shared scheduler. Network, IO and wall deltas are
    snapshotted around every step -- execution is single-threaded, so
    the attribution is exact even when queries from different sessions
    interleave on the same fabric.

    Re-planning
    -----------
    Every broadcast-vs-repartition decision the rewriter recorded names
    the exchange that moves the build side, and the run watches that
    exchange: ``Exchange.pump`` calls the watcher after every sender
    round with live ``tuples_in``. When the observed cardinality is off
    from the estimate by :data:`REPLAN_QERROR_THRESHOLD` *and* the
    cost comparison now flips the other way, the watcher raises
    :class:`~repro.mpp.plan.ReplanSignal` straight through the
    operator generator stack. :meth:`step` catches it, feeds the
    observation into the feedback store, cancels the operator tree
    (generators closed, channel buffers dropped, memory released),
    re-invokes the rewriter -- which now sees the corrected cardinality
    -- and rebuilds in place under the *same* pinned snapshot, admission
    slot, scheduler and parent meter. Restarting discards the old root
    batches, so results are exactly the batches of the final plan: no
    partial-output stitching, no duplicates; the run's round, wall,
    simulated-time and IO counters just keep accumulating.

    A broadcast decision can flip as soon as its lower-bound actual
    already loses to repartition (mid-stream: ``tuples_in`` only grows,
    so the trigger is certain). A repartition decision is only judged
    once its senders finished -- a partial count cannot prove broadcast
    would have been cheaper.
    """

    def __init__(self, executor: "MppExecutor", qplan: QueryPlan, trans,
                 scheduler: StreamScheduler, meter: MemoryMeter,
                 query_id: Optional[int]):
        cluster = executor.cluster
        config = cluster.config
        self.executor = executor
        self.cluster = cluster
        self.qplan = qplan
        self.query_id = query_id
        self.trans = trans
        self.scheduler = scheduler
        #: the cluster-wide meter every build's own meter chains into
        self.parent_meter = meter
        self.threshold = REPLAN_QERROR_THRESHOLD
        self.max_replans = (
            MAX_REPLANS_PER_QUERY
            if config.adaptive_replan and cluster.feedback is not None
            else 0)
        self.rounds = 0
        self.replans = 0
        self.done = False
        self.cancelled = False
        self.build_wall = 0.0
        self.step_wall = 0.0
        self.flush_wall = 0.0
        self.network_bytes = 0
        self.network_messages = 0
        self.bytes_read = 0
        #: shared-scheduler position at prepare; latency = clock - this
        self.sim_start = scheduler.sim_seconds
        #: per-node peaks and exchange stats of builds a re-plan cancelled
        self._cancelled_peaks: Dict[str, int] = {}
        self._cancelled_exchanges: List[Dict[str, object]] = []
        self._result: Optional[QueryResult] = None
        self._build()

    def _build(self) -> None:
        """Compose the operator tree for the current plan."""
        cluster = self.cluster
        flags = self.qplan.flags
        t0 = _time.perf_counter()
        self.ctx = ctx = _RunContext(
            trans=self.trans, mode=flags.exchange_mode,
            n_lanes=(1 if flags.thread_to_node
                     else cluster.config.cores_per_node),
            vector_size=cluster.config.vector_size,
            scheduler=self.scheduler,
            meter=MemoryMeter(parent=self.parent_meter),
            workers=cluster.workers,
            session_master=cluster.session_master,
        )
        top = self.qplan.root
        if top.distribution.kind == P.PARTITIONED:
            # final gather at the session master (normally the
            # rewriter inserts this; hand-built trees get it implicitly)
            top = P.DXUnion(top)
        self.op = self.executor._build_op(top, MASTER_STREAM, ctx)
        for decision in self.qplan.decisions:
            exchange = ctx.exchanges.get(decision.node)
            if exchange is not None:
                exchange.watcher = self._watcher(decision)
        self.batches: List[Batch] = []
        self._iterator = None
        self.build_wall += _time.perf_counter() - t0

    # -- accounting helpers --------------------------------------------------

    def _io_snapshot(self):
        mpi = self.cluster.mpi
        return (mpi.total_bytes, mpi.total_messages,
                self.cluster.hdfs.total_bytes_read())

    def _io_charge(self, before) -> None:
        mpi = self.cluster.mpi
        self.network_bytes += mpi.total_bytes - before[0]
        self.network_messages += mpi.total_messages - before[1]
        self.bytes_read += self.cluster.hdfs.total_bytes_read() - before[2]

    def _exchange_stats(self) -> List[Dict[str, object]]:
        return [dict(ex.stats(), plan=phys)
                for phys, ex in self.ctx.exchanges.items()]

    # -- lifecycle -----------------------------------------------------------

    def step(self) -> bool:
        """Advance the root stream by one scheduler round.

        Returns True while the query has more work (another step will
        make progress); False once the root stream is drained.
        """
        if self.done or self.cancelled:
            return False
        before = self._io_snapshot()
        t0 = _time.perf_counter()
        if self._iterator is None:
            self._iterator = self.op.execute()
        replan = None
        try:
            item, dt = self.scheduler.advance(self._iterator)
            self.scheduler.charge_round([dt])
        except ReplanSignal as signal:
            replan = signal
        finally:
            # an exception aborts the pull mid-round: still account the
            # round, the wall time and the IO it caused
            self.rounds += 1
            self.step_wall += _time.perf_counter() - t0
            self._io_charge(before)
        if replan is not None:
            self._replan(replan)
            return True
        if item is DONE:
            self.done = True
            return False
        self.batches.append(item)
        return True

    def finish(self) -> QueryResult:
        """Close the exchanges and build the result."""
        if self._result is not None:
            return self._result
        ctx = self.ctx
        before = self._io_snapshot()
        t0 = _time.perf_counter()
        # a Limit/TopN root may abandon receivers mid-stream, with
        # senders suspended, buffers part full and queues not empty
        for ex in ctx.exchanges.values():
            ex.close()
        self.flush_wall += _time.perf_counter() - t0
        self._io_charge(before)
        # what was built for the plan, less what never started
        ran = {key: node for key, node in ctx.profiles.items()
               if node.stream_times}
        for node in ran.values():
            node.children = [c for c in node.children if c.stream_times]
        self.executor._record_metrics(ctx)
        peaks = ctx.meter.peak_by_node()
        for node, peak in self._cancelled_peaks.items():
            peaks[node] = max(peaks.get(node, 0), peak)
        # the one place coded string columns become strings: whatever
        # reads a result (caches, wire protocols, tests) sees plain arrays
        rows = concat_batches(self.batches)
        self._result = QueryResult(
            batch=Batch(materialized(rows.columns), rows.n),
            elapsed=self.build_wall + self.step_wall + self.flush_wall,
            simulated_parallel_seconds=(
                self.scheduler.sim_seconds - self.sim_start),
            network_bytes=self.network_bytes,
            network_messages=self.network_messages,
            bytes_read=self.bytes_read,
            profiles=[self.op.profile] if self.op.profile.stream_times else [],
            plan_profiles=ran,
            peak_node_memory=peaks,
            exchanges=self._cancelled_exchanges + self._exchange_stats(),
            rounds=self.rounds,
            replans=self.replans,
            qplan=self.qplan,
            query_id=self.query_id,
        )
        self._result.max_qerror = self._judge_estimates(self._result)
        self.cluster.profiler.observe_query(self._result)
        ctx.meter.detach()
        return self._result

    def cancel(self) -> None:
        """Unwind a suspended query: close its generators (releasing scan
        holds via their ``finally`` blocks), drop buffered channel bytes
        without flushing them to the fabric, drain receive queues, and
        give residual operator-state bytes back to the parent meter."""
        if self.cancelled or self._result is not None:
            return
        self.cancelled = True
        self.done = True
        self._unwind()

    def _unwind(self) -> None:
        if self._iterator is not None:
            self._iterator.close()
        for ex in self.ctx.exchanges.values():
            ex.close(flush=False)
        self.ctx.meter.detach()

    # -- adaptivity ----------------------------------------------------------

    def _watcher(self, decision: ExchangeDecision):
        def watch(exchange: Exchange) -> None:
            if self.replans >= self.max_replans:
                return
            actual = float(exchange.tuples_in)
            estimated = max(decision.estimated, 1.0)
            others = max(1, decision.n_workers - 1)
            if decision.choice == "broadcast":
                # tuples_in only grows, so a mid-stream flip is certain:
                # even the lower-bound actual already loses to reshuffle
                if actual < estimated * self.threshold:
                    return
                if actual * others > actual + decision.probe_move_rows:
                    raise ReplanSignal(decision, actual)
            else:  # repartition: judge only once the count is final
                if not exchange.senders_done:
                    return
                if actual * self.threshold > estimated:
                    return
                if actual * others < actual + decision.probe_move_rows:
                    raise ReplanSignal(decision, actual)

        return watch

    def _replan(self, signal: ReplanSignal) -> None:
        cluster = self.cluster
        decision, actual = signal.decision, signal.actual
        if decision.signature:
            # a lower bound mid-stream, but already >= threshold x the
            # estimate -- enough to flip the decision; the final build's
            # harvest overwrites it with the exact count
            cluster.feedback.observe(
                decision.signature, decision.estimated, actual)
        self._unwind()
        for node, peak in self.ctx.meter.peak_by_node().items():
            self._cancelled_peaks[node] = max(
                self._cancelled_peaks.get(node, 0), peak)
        self._cancelled_exchanges.extend(self._exchange_stats())
        self.replans += 1
        self.executor._m_replans.inc()
        cluster.events.emit(
            "workload", "query.replan",
            query=self.query_id, choice=decision.choice,
            estimated=round(decision.estimated, 3),
            observed=int(actual),
            fragment=(decision.signature or "")[:120])
        qplan = self.qplan
        # a prepared statement's logical plan is its template: the new
        # plan reads the entry just observed, then takes the same values
        self.qplan = ParallelRewriter(cluster, qplan.flags).plan(
            qplan.logical)
        if qplan.params:
            self.qplan = self.qplan.bind(qplan.params)
        self._build()

    def _judge_estimates(self, result: QueryResult) -> float:
        """Hold the plan's estimates against what each of its nodes put
        out: feed the feedback store and return the worst q-error."""
        qplan = self.qplan
        store = self.cluster.feedback
        # a Limit root abandons upstream operators mid-stream: their
        # tuples_out are truncation artifacts, not cardinalities
        harvest = store is not None and not any(
            isinstance(n, P.PLimit) for n in qplan.root.walk())
        # filters between a join and the scan its keys filter put out
        # fewer rows than they were estimated to, by an amount nobody
        # counted: they are not judged
        unjudged = set()
        for node in qplan.root.walk():
            if (isinstance(node, P.PHashJoin)
                    and node.key_filter_scan is not None):
                below = node.children[1]
                while below is not node.key_filter_scan:
                    unjudged.add(below)
                    below = below.children[0]
        worst = 0.0
        for node in qplan.root.walk():
            ann = qplan.annotations.get(node)
            prof = result.profile_of(node)
            if ann is None or prof is None or node in unjudged:
                continue
            # summed over the streams that ran the node: the fragment's
            # *global* output cardinality -- of a key-filtered scan, what
            # its own predicates let through, which is what was estimated
            actual = prof.tuples_out + prof.key_filtered
            worst = max(worst, ann.qerror(actual))
            if harvest and ann.signature:
                store.observe(ann.signature, ann.rows, actual)
        return worst


class MppExecutor:
    """Builds the operator trees of planned queries on a VectorH cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        registry = cluster.registry
        self._m_queries = registry.counter(
            "executor_queries_total", "Physical plans executed")
        self._m_peaks = registry.gauge(
            "executor_peak_memory_bytes",
            "High-water mark of measured per-node resident bytes",
            labels=("node",))
        self._m_streams = registry.histogram(
            "executor_stream_seconds",
            "Wall seconds each sender stream spent per exchange fragment",
            labels=("node",))
        self._m_replans = registry.counter(
            "replans_total",
            "Mid-query re-plans triggered by cardinality misestimates")

    # ------------------------------------------------------------------ public

    def prepare(self, qplan: QueryPlan, trans, scheduler: StreamScheduler,
                meter: MemoryMeter,
                query_id: Optional[int] = None) -> QueryRun:
        """Build the runner for a planned query without driving it.

        The run advances on ``scheduler`` (the workload manager's
        cluster-wide one) and rolls its memory accounting up into
        ``meter``; ``qplan.flags`` say how its exchanges run.
        """
        if not isinstance(qplan, QueryPlan):
            raise ExecutionError(
                f"cannot prepare {type(qplan).__name__}: expected a "
                "QueryPlan")
        return QueryRun(self, qplan, trans, scheduler, meter, query_id)

    def _record_metrics(self, ctx: "_RunContext") -> None:
        """Charge per-node stream times and peak memory to the registry."""
        self._m_queries.inc()
        for node, peak in ctx.meter.peak_by_node().items():
            self._m_peaks.set_max(peak, node=node)
        for ex in ctx.exchanges.values():
            for sender in ex.senders:
                if sender.stream_seconds is not None:
                    self._m_streams.observe(
                        sender.stream_seconds,
                        node=self._node_of(sender.stream, ctx))

    # ---------------------------------------------------------------- streams

    def _node_of(self, stream: str, ctx: _RunContext) -> str:
        if stream == MASTER_STREAM:
            return ctx.session_master
        return stream

    def _source_streams(self, child: P.PhysNode,
                        ctx: _RunContext) -> List[str]:
        """Which streams feed an exchange, from the child's distribution:
        a master-side child sends from the master stream, a replicated
        child from one representative worker, a partitioned child from
        every worker (the run's prepare-time snapshot of the set) -- or,
        when no exchange lies below and every partitioned scan of the
        fragment is pruned, from the nodes answering the pids it reaches
        (one stream at least, so the schema still flows)."""
        kind = child.distribution.kind
        if kind == P.MASTER:
            return [MASTER_STREAM]
        if kind == P.REPLICATED:
            return [ctx.workers[0]]
        # a plain loop: an unpruned fragment answers after its first scan
        # without one Python call, so plans that prune nothing cost the same
        nodes, stack = None, [child]
        while stack:
            node = stack.pop()
            if isinstance(node, P.DXchg):  # a hash split feeds every worker
                return list(ctx.workers)
            if (isinstance(node, P.PScan)
                    and node.distribution.kind == P.PARTITIONED):
                if node.partitions is None:
                    return list(ctx.workers)
                owners = self.cluster.placement.owners(node.table)
                nodes = nodes or set()
                nodes.update(owners[pid] for pid in node.partitions)
            stack.extend(node.children)
        if nodes is None:
            return list(ctx.workers)
        return [w for w in ctx.workers if w in nodes] or ctx.workers[:1]

    def _equip(self, op: Operator, phys: P.PhysNode, stream: str,
               ctx: _RunContext, role: str = "",
               below: Optional[Sequence[Operator]] = None) -> Operator:
        """Stamp what every operator of a run shares -- where it charges
        its state, the cluster's vector size -- and hand ``op`` the
        profile node of its plan node: made for the first stream that
        builds it, the same node for every other. The node's children
        are the nodes of the operators ``below`` it, so the profile tree
        has the plan's edges."""
        op.memory_meter = ctx.meter
        op.memory_node = self._node_of(stream, ctx)
        op.vector_size = ctx.vector_size
        node = ctx.profiles.get((phys, role))
        if node is None:
            half = "." + role if role in (RECV, SEND) else ""
            node = ctx.profiles[phys, role] = ProfileNode(
                op.describe(), kind=phys.label + half, plan=phys,
                children=[o.profile for o in
                          (op.children if below is None else below)])
        op.profile = node
        return op

    # ------------------------------------------------------------------ build

    def _build_op(self, phys: P.PhysNode, stream: str, ctx: _RunContext,
                  share_ok: bool = True) -> Operator:
        """Compose the engine operator tree for one consuming stream.

        Exchange plan nodes become receiver operators wired to a shared
        :class:`Exchange`; replicated subtrees become shared replays.
        """
        if (share_ok and phys.distribution.kind == P.REPLICATED
                and not isinstance(phys, P.DXBroadcast)):
            shared = ctx.replays.get(phys)
            if shared is None:
                home = ctx.workers[0]
                real = self._build_op(phys, home, ctx, share_ok=False)
                shared = _SharedReplay(real, ctx.scheduler)
                ctx.replays[phys] = shared
            return self._equip(ReplaySource(shared, phys.describe()), phys,
                               stream, ctx, REPLAY, below=[shared.op])

        if isinstance(phys, P.DXUnion):
            child = phys.children[0]
            if child.distribution.kind in (P.MASTER, P.REPLICATED):
                # already a single logical copy: the gather is free
                return self._build_op(child, stream, ctx, share_ok)
            return self._exchange_receiver(phys, stream, ctx)
        if isinstance(phys, P.DXBroadcast):
            child = phys.children[0]
            if child.distribution.kind == P.REPLICATED:
                return self._build_op(child, stream, ctx, share_ok)
            return self._exchange_receiver(phys, stream, ctx)
        if isinstance(phys, P.DXHashSplit):
            return self._exchange_receiver(phys, stream, ctx)

        if isinstance(phys, P.PScan):
            scan = StreamingScan(self.cluster, phys,
                                 self._node_of(stream, ctx), ctx)
            if phys.key_filter:
                ctx.key_slots[phys, stream] = scan.key_slot
            return self._equip(scan, phys, stream, ctx)

        kids = [self._build_op(c, stream, ctx, share_ok)
                for c in phys.children]
        if isinstance(phys, P.PSelect):
            op = Select(kids[0], phys.predicate)
        elif isinstance(phys, P.PProject):
            op = Project(kids[0], phys.outputs)
        elif isinstance(phys, P.PAggr):
            op = HashAggr(kids[0], phys.group_by, phys.aggregates)
        elif isinstance(phys, P.PHashJoin):
            op = HashJoin(kids[0], kids[1], phys.build_keys,
                          phys.probe_keys, phys.how, phys.build_payload)
            if phys.key_filter_scan is not None:
                op.key_slot = ctx.key_slots[phys.key_filter_scan, stream]
        elif isinstance(phys, P.PMergeJoin):
            op = MergeJoin(kids[0], kids[1], phys.left_key, phys.right_key)
        elif isinstance(phys, P.PSort):
            op = Sort(kids[0], phys.keys, phys.ascending)
        elif isinstance(phys, P.PTopN):
            op = TopN(kids[0], phys.keys, phys.n, phys.ascending)
        elif isinstance(phys, P.PLimit):
            op = Limit(kids[0], phys.n)
        elif isinstance(phys, P.PWindow):
            from repro.engine.window import Window
            op = Window(kids[0], phys.partition_by, phys.order_by,
                        phys.functions, phys.ascending)
        elif isinstance(phys, P.PUnionAll):
            from repro.engine.operators import UnionAll
            op = UnionAll(kids)
        else:
            raise ExecutionError(f"cannot build operator for {phys!r}")
        return self._equip(op, phys, stream, ctx)

    # -------------------------------------------------------------- exchanges

    def _exchange_receiver(self, phys: P.PhysNode, stream: str,
                           ctx: _RunContext) -> Operator:
        ex = ctx.exchanges.get(phys)
        if ex is None:
            ex = self._make_exchange(phys, ctx)
            ctx.exchanges[phys] = ex
            child = phys.children[0]
            for src_stream in self._source_streams(child, ctx):
                child_op = self._build_op(child, src_stream, ctx,
                                          share_ok=True)
                self._equip(ex.add_sender(src_stream, child_op), phys,
                            src_stream, ctx, SEND)
        return self._equip(ex.attach_receiver(stream), phys, stream, ctx,
                           RECV, below=ex.senders[:1])

    def _make_exchange(self, phys: P.PhysNode, ctx: _RunContext) -> Exchange:
        workers = list(ctx.workers)
        if isinstance(phys, P.DXUnion):
            def route(src, batch):
                return [(MASTER_STREAM, batch)]
        elif isinstance(phys, P.DXBroadcast):
            def route(src, batch):
                return [(w, batch) for w in workers]
        elif isinstance(phys, P.DXHashSplit):
            destinations = self._split_destinations(phys, workers)

            def route(src, batch):
                dest = destinations(batch)
                pieces = []
                for i, w in enumerate(workers):
                    mask = dest == i
                    if mask.any():
                        pieces.append((w, batch.select(mask)))
                return pieces
        else:
            raise ExecutionError(f"not an exchange: {phys!r}")
        return Exchange(
            phys.describe(), self.cluster.mpi, route,
            lambda stream: self._node_of(stream, ctx),
            ctx.scheduler, meter=ctx.meter,
            mode=ctx.mode, n_lanes=ctx.n_lanes,
        )

    def _split_destinations(self, phys: P.DXHashSplit, workers: List[str]):
        keys = phys.keys
        if phys.align_with is not None:
            # rows go to their join partners: hashed as the aligned table's
            # partition key stores them, to the node answering that pid
            schema = self.cluster.table(phys.align_with).schema
            key_types = [schema.ctype(k) for k in schema.partition_key]
            stream_of_pid = np.array(
                [workers.index(node) for node in
                 self.cluster.placement.owners(phys.align_with)],
                dtype=np.int64)

            def destinations(batch: Batch) -> np.ndarray:
                return stream_of_pid.take(schema.partition_ids([
                    ctype.to_storage(batch.columns[k])
                    for ctype, k in zip(key_types, keys)]))
        else:
            def destinations(batch: Batch) -> np.ndarray:
                return _hash_to_streams(batch, keys, workers)
        return destinations
