"""VectorHCluster: workers, session master, catalog, DML, failure handling.

Wires every subsystem together the way section 2's roadmap describes:
HDFS storage with the instrumented placement policy (section 3), YARN
negotiation through dbAgent (section 4), MPP query execution through the
Parallel Rewriter and DXchg operators (section 5), and PDT-based
transactions with per-partition WALs and 2PC (section 6).
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.partitions import PartitionPlacement
from repro.common.config import Config, DEFAULT_CONFIG
from repro.common.errors import PlanError, ReproError, StorageError
from repro.engine.expressions import Expr
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.placement import VectorHPlacementPolicy
from repro.mpp.executor import MppExecutor, QueryResult
from repro.mpp.feedback import CardinalityFeedbackStore
from repro.mpp.logical import (LogicalPlan, LScan, derive_scan_triples,
                                predicate_triples)
from repro.mpp.rewriter import ParallelRewriter, RewriterFlags
from repro.net.mpi import MpiFabric
from repro.obs import (
    ClusterEventLog,
    ContinuousProfiler,
    FlightRecorder,
    MetricsRegistry,
    SimClock,
    Tracer,
)
from repro.obs.introspect import SystemCatalog, annotate_plan, resolve_table
from repro.storage.buffer import BufferPool
from repro.storage.schema import TableSchema
from repro.storage.table import StoredTable
from repro.txn.manager import DistributedTransaction, TransactionManager
from repro.txn.wal import WalManager
from repro.workload import WorkloadManager
from repro.yarn.dbagent import DbAgent
from repro.yarn.manager import ResourceManager

#: inserts of at least this many rows to *unordered* tables append directly
#: to disk instead of buffering in PDTs (paper section 6).
DIRECT_APPEND_THRESHOLD = 4096

#: cluster events kept for ``vh$events``; the oldest fall off the front
#: and are counted in ``events_dropped_total``
EVENT_LOG_CAPACITY = 65536


class VectorHCluster:
    """An in-process VectorH deployment."""

    def __init__(
        self,
        n_nodes: int = 4,
        config: Optional[Config] = None,
        node_names: Optional[List[str]] = None,
        db_path: str = "/db",
        num_workers: Optional[int] = None,
        yarn_queues: Optional[Dict[str, int]] = None,
    ):
        self.config = config or DEFAULT_CONFIG
        names = node_names or [f"node{i + 1}" for i in range(n_nodes)]
        self.db_path = db_path

        # one observability plane for every subsystem below
        self.registry = MetricsRegistry()
        self.sim_clock = SimClock()
        self.tracer = Tracer(sim_clock=self.sim_clock)
        self.events = ClusterEventLog(
            sim_clock=self.sim_clock,
            retention=EVENT_LOG_CAPACITY,
            registry=self.registry)
        #: observed-cardinality memory consulted by every ParallelRewriter
        self.feedback = (
            CardinalityFeedbackStore(registry=self.registry,
                                     sim_clock=self.sim_clock)
            if self.config.adaptive_feedback else None)

        #: partition placement, one map per co-location group
        self.placement = PartitionPlacement(self)
        self.hdfs = HdfsCluster(names, self.config,
                                VectorHPlacementPolicy(self.placement.targets),
                                registry=self.registry, events=self.events,
                                sim_clock=self.sim_clock)
        self.rm = ResourceManager(yarn_queues or {"default": 5, "prod": 8},
                                  registry=self.registry, events=self.events)
        for name in names:
            self.rm.register_node(
                name, self.config.cores_per_node, self.config.memory_per_node_mb
            )
        self.dbagent = DbAgent(
            self.rm, self.hdfs, names,
            slice_cores=max(1, self.config.cores_per_node // 4),
            slice_memory_mb=max(256, self.config.memory_per_node_mb // 8),
        )
        self.workers: List[str] = self.dbagent.negotiate_worker_set(
            num_workers or len(names), db_path + "/"
        )
        self.session_master: str = self.workers[0]

        self.mpi = MpiFabric(self.config.mpi_message_size,
                             registry=self.registry,
                             sim_clock=self.sim_clock)
        self._pools: Dict[str, BufferPool] = {
            name: BufferPool(self.hdfs, registry=self.registry, node=name)
            for name in names
        }
        self.tables: Dict[str, StoredTable] = {}
        self.wal = WalManager(self.hdfs, db_path, registry=self.registry)
        self.txn = TransactionManager(self)
        self.executor = MppExecutor(self)
        self.catalog = SystemCatalog(self)
        self.workload = WorkloadManager(self)
        # the automatic footprint follows real load, not a guessed count
        self.dbagent.workload_probe = self.workload.load
        self.dbagent.events = self.events
        #: the flight recorder: metric history + alert engine + the
        #: terminal hook that summarises each query, sampling from the
        #: workload manager's round hook (before any chaos controller
        #: installed later, so samples precede faults)
        self.monitor = FlightRecorder(self)
        self.workload.round_hooks.append(self.monitor.tick)
        #: the continuous profiler: every finished query's operator tree
        #: folds into cumulative per-kind/per-kernel stats
        self.profiler = ContinuousProfiler(self.registry)
        #: installed ChaosController when fault injection is active
        self.chaos = None
        #: installed ServerFrontend when the cluster is served over the
        #: simulated wire protocol (see :meth:`serve`)
        self.frontend = None

    # ---------------------------------------------------------------- plumbing

    def pool_of(self, node: str) -> BufferPool:
        return self._pools[node]

    def table(self, name: str):
        """Resolve a table name: base tables, then vh$ system tables."""
        return resolve_table(self, name)

    def responsible(self, table: str, pid: int) -> str:
        return self.placement.owners(table)[pid]

    # --------------------------------------------------------------------- DDL

    def create_table(self, schema: TableSchema) -> StoredTable:
        """Create a table: storage, PDT stacks and WALs. It joins the
        co-location group of its partition count, so its partition ``pid``
        lives where ``pid`` of every such table lives -- the invariant
        behind co-located FK joins."""
        if schema.name in self.tables:
            raise StorageError(f"table exists: {schema.name}")
        stored = StoredTable(self.hdfs, self.db_path, schema, self.config)
        self.tables[schema.name] = stored
        group = self.placement.join(stored.n_partitions)
        for pid, node in enumerate(group.responsible):
            self.wal.create_partition_wal(schema.name, pid, writer=node)
        self.wal.log_global("ddl", ("create_table", schema.name),
                            writer=self.session_master)
        self.events.emit("cluster", "create_table", table=schema.name,
                         partitions=stored.n_partitions)
        return stored

    def drop_table(self, name: str) -> None:
        stored = self.tables.pop(name, None)
        if stored is None:
            raise StorageError(f"no such table {name}")
        self.placement.leave(stored.n_partitions)
        for pid in range(stored.n_partitions):
            path = self.wal.partition_wal_path(name, pid)
            if self.hdfs.exists(path):
                self.hdfs.delete(path)
        for part in stored.partitions:
            part.delete_all()
        self.wal.log_global("ddl", ("drop_table", name),
                            writer=self.session_master)
        self.txn.bump_epoch(name)
        self.events.emit("cluster", "drop_table", table=name)

    # --------------------------------------------------------------------- load

    def bulk_load(self, table: str, columns: Dict[str, np.ndarray]) -> None:
        """Initial load; each partition is written by its responsible node,
        so the default first-copy-on-the-writer rule already lands the
        primary replica locally. A partition whose WAL holds records
        logs its new MinMax: a replay must not restore one older than the
        blocks. A partition an unfinished transaction holds takes no rows
        (``StorageError``, nothing written)."""
        stored, owners = self.tables[table], self.placement.owners(table)
        stored.bulk_load(columns, dict(enumerate(owners)),
                         busy={pid for name, pid in self.txn.held_partitions()
                               if name == table})
        for pid, node in enumerate(owners):
            if self.hdfs.file_size(self.wal.partition_wal_path(table, pid)):
                self.wal.log_minmax(table, pid,
                                    stored.partitions[pid].minmax.to_record(),
                                    writer=node)
        self.txn.bump_epoch(table)

    # ------------------------------------------------------------------- queries

    def serve(self):
        """Install (or return) the wire-protocol server frontend.

        The frontend accepts simulated client connections, routes each to
        a tenant queue in the workload manager and fronts execution with
        the epoch-keyed result/plan caches. Idempotent: one frontend per
        cluster.
        """
        if self.frontend is None:
            from repro.server import ServerFrontend
            self.frontend = ServerFrontend(self)
        return self.frontend

    def submit(self, plan: LogicalPlan, **kwargs) -> int:
        """Submit a query for concurrent execution; returns the query id.

        The query is rewritten and enters the admission queue; it runs
        interleaved with every other admitted query on the shared
        simulated clock. See :meth:`repro.workload.WorkloadManager.submit`
        for the keyword options (``flags``, ``trans``, ``timeout``,
        ``trace``, ``memory_estimate``).
        """
        return self.workload.submit(plan, **kwargs)

    def gather(self, query_id: int) -> QueryResult:
        """Drive workload rounds until ``query_id`` finishes; return its
        result (raising the query's error, or
        :class:`~repro.common.errors.QueryCancelled` /
        :class:`~repro.common.errors.QueryTimeout`)."""
        return self.workload.gather(query_id)

    def query(self, plan: LogicalPlan,
              flags: Optional[RewriterFlags] = None,
              trans: Optional[DistributedTransaction] = None,
              trace: bool = False,
              timeout: Optional[float] = None) -> QueryResult:
        """Optimize and execute a logical plan (or run an already-planned
        ``QueryPlan`` as is); returns the result batch plus execution
        statistics (network, IO, memory, profile).

        Submit + gather on the workload manager: the query goes
        through admission like any other and any previously submitted
        queries interleave with it while it is gathered. ``flags``
        (:class:`~repro.mpp.plan.RewriterFlags`) also set the DXchg
        schedule and buffering. With ``trace`` the result carries the
        lifecycle span tree (rewrite -> assignment -> execute -> commit,
        operator and exchange spans grafted under execute), also
        ``cluster.tracer.last_trace``; an untraced query builds no spans
        and leaves ``last_trace`` alone.
        """
        query_id = self.workload.submit(
            plan, flags=flags, trans=trans, timeout=timeout, trace=trace)
        return self.workload.gather(query_id)

    def explain(self, plan: LogicalPlan,
                flags: Optional[RewriterFlags] = None) -> str:
        return ParallelRewriter(self, flags).plan(plan).pretty()

    def explain_analyze(self, plan: LogicalPlan,
                        flags: Optional[RewriterFlags] = None,
                        trans: Optional[DistributedTransaction] = None,
                        ) -> Tuple[str, QueryResult]:
        """Run the plan as an ordinary query and return ``(text,
        result)``: the physical plan that produced the rows (after a
        re-plan, the final one) with per-operator actuals -- rows,
        stream time, wire bytes per link, MinMax skips, scan locality --
        from a registry snapshot diff around the run; see
        :func:`repro.obs.introspect.annotate_plan`."""
        before = self.registry.snapshot()
        result = self.query(plan, flags=flags, trans=trans)
        return annotate_plan(result, before, self.registry.snapshot()), result

    def resolve_minmax(self, plan: LogicalPlan) -> Dict[str, object]:
        """The MinMax network interface (paper section 6).

        Only responsible nodes hold a partition's MinMax index, but the
        session master consults it during query optimization. VectorH's
        MPI interface resolves *all* MinMax information a query needs --
        every selection predicate on every table -- in a single network
        interaction per involved node. Returns, per table, the union of
        qualifying row ranges per partition, charging exactly one
        request/response pair per remote responsible node.
        """
        wanted: Dict[str, list] = {}
        for scan in derive_scan_triples(plan).walk():
            if isinstance(scan, LScan) and scan.skip_predicates:
                wanted.setdefault(scan.table, []).extend(scan.skip_predicates)
        by_node: Dict[str, list] = {}
        for table, preds in wanted.items():
            for pid, node in enumerate(self.placement.owners(table)):
                by_node.setdefault(node, []).append((table, pid, preds))
        answers: Dict[str, object] = {}
        for node, requests in by_node.items():
            if node != self.session_master:
                # one request with every (table, partition, predicates)
                # triple, one response with every answer
                self.mpi.send(self.session_master, node,
                              64 * max(1, len(requests)))
            for table, pid, preds in requests:
                stored = self.tables[table]
                store = stored.partitions[pid]
                ranges = store.minmax.qualifying_ranges(
                    stored.storage_predicates(preds), store.n_stable
                )
                answers[f"{table}/{pid}"] = ranges
            if node != self.session_master:
                self.mpi.send(node, self.session_master,
                              48 * max(1, len(requests)))
        return answers

    # ----------------------------------------------------------------------- DML

    def begin(self) -> DistributedTransaction:
        return self.txn.begin()

    def insert(self, table: str, columns: Dict[str, np.ndarray],
               trans: Optional[DistributedTransaction] = None,
               force_pdt: bool = False) -> None:
        """Insert rows (engine values, as :meth:`bulk_load` takes them).
        Unordered tables take large inserts as direct appends; small
        inserts (or ``force_pdt``) buffer in PDTs -- "for very small
        inserts this provides better performance (no IO)". So do large
        ones while an unfinished transaction holds a partition of the
        table: it keeps its snapshot, and the append would delete the
        partial blocks it reads."""
        stored = self.tables[table]
        n = len(columns[stored.schema.column_names[0]])
        if (not stored.schema.is_clustered and not force_pdt
                and n >= DIRECT_APPEND_THRESHOLD
                and not any(name == table
                            for name, _ in self.txn.held_partitions())):
            self.bulk_load(table, columns)
            return
        own_txn = trans is None
        if own_txn:
            trans = self.begin()
        stored.insert_rows(columns, lambda pid: trans.trans_for(table, pid))
        if own_txn:
            trans.commit()

    def _change_where(self, table: str, predicate: Expr,
                      columns: Sequence[str],
                      trans: Optional[DistributedTransaction],
                      change) -> int:
        """Apply ``change(pid, partition transaction, columns, identities)``
        to the rows a DML statement's WHERE selects, found the way a
        SELECT finds them: each partition scanned at its responsible node
        (so PDTs are modified on the right node) under the statement's
        transaction, MinMax and the scan's exact filter applied on the
        triples of ``predicate`` before it sees a row -- only the
        partitions their key literals reach. ``change`` runs once per
        piece of the scan that holds a selected row; the scan fixed its
        entries at its first piece, so it does not read back what
        ``change`` wrote. Returns the sum of what ``change`` returned."""
        stored = self.tables[table]
        own_txn = trans is None
        if own_txn:
            trans = self.begin()
        changed = 0
        owners = self.placement.owners(table)
        triples = predicate_triples(predicate)
        reached = stored.reached_partitions(triples)
        for pid in range(len(owners)) if reached is None else reached:
            node = owners[pid]
            t = trans.trans_for(table, pid)
            pieces = stored.scan_pieces(pid, columns, triples, trans=t,
                                        reader=node, pool=self.pool_of(node),
                                        identities=True)
            with closing(pieces):
                for res in pieces:
                    # a constant predicate (``WHERE 1 = 1``) is one bool
                    mask = np.broadcast_to(np.asarray(
                        predicate.eval(res.columns), dtype=bool), res.n_rows)
                    if mask.any():
                        hit = {k: v[mask] for k, v in res.columns.items()}
                        changed += change(pid, t, hit, res.identities[mask])
        if own_txn:
            trans.commit()
        return changed

    def delete_where(self, table: str, predicate: Expr,
                     trans: Optional[DistributedTransaction] = None) -> int:
        """DELETE FROM table WHERE predicate; returns rows deleted."""
        stored = self.tables[table]
        return self._change_where(
            table, predicate, predicate.columns_used(), trans,
            lambda pid, t, _hit, identities: stored.delete_rows(
                pid, identities, t))

    def update_where(self, table: str, predicate: Expr,
                     assignments: Dict[str, Expr],
                     trans: Optional[DistributedTransaction] = None) -> int:
        """UPDATE table SET col=expr... WHERE predicate; returns rows hit.

        A partition-key column may not be assigned: the row would stay
        in the partition its old key hashed to (as Citus and Greenplum
        refuse to update a distribution column)."""
        stored = self.tables[table]
        moved = [c for c in stored.schema.partition_key if c in assignments]
        if moved:
            raise PlanError(f"cannot UPDATE partition key "
                            f"{', '.join(moved)} of {table}")
        needed = list(dict.fromkeys(
            predicate.columns_used()
            + [c for e in assignments.values() for c in e.columns_used()]
        ))

        def modify(pid, t, hit, identities):
            new_values = {col: np.asarray(expr.eval(hit))
                          for col, expr in assignments.items()}
            for col in new_values:
                if new_values[col].ndim == 0:
                    new_values[col] = np.full(len(identities),
                                              new_values[col])
            return stored.modify_rows(pid, identities, new_values, t)

        return self._change_where(table, predicate, needed, trans, modify)

    # -------------------------------------------------------------- propagation

    def propagate_updates(self, table: Optional[str] = None,
                          force: bool = False) -> Dict[str, int]:
        """Run update propagation where thresholds are exceeded (every
        partition with entries when ``force``; see
        :meth:`StoredTable.propagate` for what an un-forced one defers).

        A partition an unfinished transaction holds (a running query's
        own among them) is left for a later call, where it is still due:
        its scans read the blocks and PDT layers it took, and its
        Trans-PDT addresses rows of that stable image, which propagation
        would rewrite."""
        stats = {"tail": 0, "full": 0}
        names = [table] if table else list(self.tables)
        held = self.txn.held_partitions()
        for name in names:
            stored = self.tables[name]
            for pid, node in enumerate(self.placement.owners(name)):
                if (name, pid) in held:
                    continue
                if force or stored.needs_propagation(pid):
                    mode = stored.propagate(pid, writer=node, force=force)
                    if mode != "none":
                        stats[mode] += 1
                        self.wal.reset_partition_wal(name, pid, writer=node)
                        kept = stored.pdt[pid].scan_entries()
                        if kept:
                            # what the flush left in the PDT, as txn 0's
                            # prepare + commit: a node taking the
                            # partition over rebuilds the PDT from the WAL
                            self.wal.log_prepare(name, pid, 0, kept,
                                                 writer=node)
                            self.wal.log_commit(name, pid, 0, writer=node)
                        self.wal.log_minmax(
                            name, pid,
                            stored.partitions[pid].minmax.to_record(),
                            writer=node,
                        )
                        self._pools[node].invalidate(
                            stored.partitions[pid].base_path
                        )
        return stats

    # ------------------------------------------------------------------ failures

    def fail_node(self, name: str) -> Dict[str, object]:
        """Handle a node failure the VectorH way (sections 3-4).

        1. running queries touching the node are unwound and requeued by
           the workload manager (their prepared runs cache the old
           worker set and session master);
        2. dbAgent shrinks the worker set to the survivors;
        3. :meth:`PartitionPlacement.rebalance` recomputes every group's
           map by min-cost flow, the new responsible nodes replay their
           partition WALs, and HDFS re-replicates under the new maps;
        4. the (possibly new) session master resolves in-doubt 2PC
           transactions from the WALs, then queued queries re-dispatch.

        Raises :class:`DataLossError` -- before touching any state -- if
        killing ``name`` would leave some partition with zero alive
        replica holders; that is unrecoverable, not a failover.
        """
        if name not in self.workers:
            raise ReproError(f"{name} is not in the worker set")
        self.placement.check_data_loss(name)
        self.events.emit("cluster", "node_failed", node=name)
        self.workload.on_node_failed(name)
        self.hdfs.mark_node_dead(name)
        self.rm.unregister_node(name)
        agent = self.dbagent
        agent.viable_machines = [m for m in agent.viable_machines if m != name]
        self.workers = agent.negotiate_worker_set(len(self.workers) - 1,
                                                  self.db_path + "/")
        if self.session_master not in self.workers:
            self.session_master = self.workers[0]

        moved = self.placement.rebalance()
        # presumed-abort recovery: the new session master settles any
        # transaction the dead node left between 2PC prepare and commit
        resolved = self.txn.resolve_in_doubt()
        self.events.emit(
            "cluster", "failover_complete", node=name,
            workers=len(self.workers),
            moved_partitions=moved["moved_partitions"],
            rereplicated_files=moved["rereplicated_files"],
            resolved_commits=len(resolved["committed"]),
            resolved_aborts=len(resolved["aborted"]),
        )
        self.workload.redispatch()
        return {"workers": list(self.workers), **moved, "resolved": resolved}

    # --------------------------------------------- dynamic worker set (§4)
    #
    # The paper plans to "grow and shrink the worker set (not only
    # cores/RAM) dynamically" in a future release; these methods implement
    # that roadmap item on top of the same min-cost-flow machinery.

    def add_worker(self, name: str) -> None:
        """Grow the worker set with a fresh node.

        The node registers with HDFS and YARN, then the group maps are
        rebalanced so the newcomer receives an even share of partition
        copies (steered re-replication moves them) and responsibilities.
        """
        if name in self.workers:
            raise ReproError(f"{name} already in the worker set")
        if name not in self.hdfs.nodes or not self.hdfs.nodes[name].alive:
            self.hdfs.add_node(name)
        if name not in self.rm.node_managers:
            self.rm.register_node(name, self.config.cores_per_node,
                                  self.config.memory_per_node_mb)
        if name not in self.dbagent.viable_machines:
            self.dbagent.viable_machines.append(name)
        self._pools.setdefault(
            name, BufferPool(self.hdfs, registry=self.registry, node=name)
        )
        self.workers = self.dbagent.negotiate_worker_set(
            len(self.workers) + 1, self.db_path + "/"
        )
        self.events.emit("cluster", "worker_added", node=name,
                         workers=len(self.workers))
        self.placement.rebalance()

    def shrink_to_minimal_footprint(self) -> List[str]:
        """Idle mode (section 4): concentrate responsibility on the
        covering subset (:meth:`PartitionPlacement.covering_subset`) and
        return it; the other workers keep their replicas but answer no
        partition."""
        active = self.placement.covering_subset()
        self.placement.rebalance(responsibility_workers=active)
        self.dbagent.shrink_footprint(len(self.dbagent.slices))
        self.events.emit("cluster", "footprint_shrunk",
                         active=",".join(active))
        return active

    def restore_full_footprint(self) -> None:
        """Leave idle mode: spread responsibilities over all workers."""
        self.placement.rebalance()
        self.events.emit("cluster", "footprint_restored",
                         workers=len(self.workers))

    # ----------------------------------------------------------------- statistics

    def metrics(self) -> MetricsRegistry:
        """The cluster-wide metrics registry: one coherent snapshot of
        every subsystem (``metrics().snapshot()``), resettable
        (``metrics().reset()``), Prometheus-renderable
        (``metrics().render()``)."""
        return self.registry

    def locality_report(self) -> Dict[str, float]:
        return {
            "short_circuit_fraction": self.hdfs.locality_fraction(),
            "total_bytes_read": float(self.hdfs.total_bytes_read()),
            "network_bytes": float(self.mpi.total_bytes),
            "colocated_fraction": self.placement.audit()["overall"],
        }

    def clear_buffer_pools(self) -> None:
        for pool in self._pools.values():
            pool.clear()
