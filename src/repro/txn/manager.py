"""Distributed transaction management with 2PC and log shipping.

The session master coordinates: **prepare** asks every involved partition's
responsible node to validate (optimistic write-write conflict check against
commits since the snapshot, plus constraint checks), **commit** serializes
each Trans-PDT into its partition's master PDT stack, appends a commit
record that names its prepare record (the redo) and log-ships
replicated-table changes; the global decision precedes every apply.
All coordination messages are charged to the MPI fabric.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.common.errors import (
    ConstraintViolation,
    SimulatedCrash,
    TransactionAborted,
)
from repro.engine.batch import concat_columns, order_key
from repro.pdt.stack import TransPdt

_COORDINATION_MESSAGE_BYTES = 64  # prepare/commit votes are tiny


@dataclass
class DistributedTransaction:
    """A client transaction spanning any number of table partitions."""

    txn_id: int
    manager: "TransactionManager"
    parts: Dict[Tuple[str, int], TransPdt] = field(default_factory=dict)
    finished: bool = False
    #: partitions whose prepare record hit the WAL (phase 1); an abort
    #: after any prepares logs abort records so WAL scans skip the txn
    prepared: list = field(default_factory=list)

    def trans_for(self, table: str, pid: int) -> TransPdt:
        """The Trans-PDT for one partition, created lazily at first touch."""
        key = (table, pid)
        trans = self.parts.get(key)
        if trans is None:
            stack = self.manager.cluster.tables[table].pdt[pid]
            trans = stack.begin()
            self.parts[key] = trans
        return trans

    def is_update(self) -> bool:
        return any(len(t) for t in self.parts.values())

    def commit(self) -> None:
        self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)


class TransactionManager:
    """Session-master side of transaction processing."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._txn_ids = itertools.count(1)
        self.registry = registry = cluster.registry
        self._outcomes = registry.counter(
            "txn_outcomes_total", "Transactions by final 2PC outcome",
            labels=("outcome",),
        )
        self._prepares = registry.counter(
            "txn_prepare_votes_total",
            "2PC prepare votes collected from responsible nodes",
        )
        self._shipped = registry.counter(
            "txn_log_shipped_bytes_total",
            "Replicated-table log bytes shipped to other workers",
        )
        self._resolved = registry.counter(
            "txn_in_doubt_resolved_total",
            "In-doubt transactions settled by presumed-abort recovery",
            labels=("outcome",),
        )
        #: chaos hook: ``crash_hook(point, txn)`` called at 2PC injection
        #: points; raising :class:`SimulatedCrash` models the coordinator
        #: node dying there, leaving the transaction in doubt.
        self.crash_hook = None
        #: per-table snapshot epoch: bumped once per table whenever a
        #: commit (2PC, recovery, direct append or bulk load) changes its
        #: visible contents. Caches key results by epoch vector -- any
        #: entry whose epochs no longer match is stale by construction.
        self.table_epochs: Dict[str, int] = {}
        #: ``listener(table, epoch)`` callbacks fired on every bump (the
        #: server frontend registers its cache invalidation here)
        self.epoch_listeners: list = []
        #: every transaction begun, by id, held weakly: one its caller
        #: dropped holds nothing
        self._begun = weakref.WeakValueDictionary()

    # ------------------------------------------------------------------ epochs

    def table_epoch(self, table: str) -> int:
        """Current snapshot epoch of ``table`` (0 = never committed to)."""
        return self.table_epochs.get(table, 0)

    def epoch_vector(self, tables) -> Tuple[Tuple[str, int], ...]:
        """Sorted ``(table, epoch)`` pairs -- the cache-validity key."""
        return tuple((t, self.table_epochs.get(t, 0))
                     for t in sorted(set(tables)))

    def bump_epoch(self, table: str) -> int:
        """Advance ``table``'s epoch and notify cache invalidators."""
        epoch = self.table_epochs.get(table, 0) + 1
        self.table_epochs[table] = epoch
        for listener in list(self.epoch_listeners):
            listener(table, epoch)
        return epoch

    @property
    def commits(self) -> int:
        return int(self._outcomes.get(outcome="commit"))

    @property
    def aborts(self) -> int:
        return int(self._outcomes.get(outcome="abort"))

    @property
    def log_shipped_bytes(self) -> int:
        return int(self._shipped.total())

    def begin(self) -> DistributedTransaction:
        txn = DistributedTransaction(next(self._txn_ids), self)
        self._begun[txn.txn_id] = txn
        return txn

    def held_partitions(self) -> set:
        """The ``(table, pid)`` pairs an unfinished transaction holds (a
        running query's own among them): its Trans-PDTs address rows of
        the stable image it took, so no propagation or direct append may
        rewrite that image before it finishes."""
        return {key for txn in list(self._begun.values())
                if not txn.finished for key in txn.parts}

    def pin_snapshot(self, txn: DistributedTransaction,
                     parts) -> int:
        """Materialize the transaction's snapshot of ``parts`` *now*.

        ``parts`` is an iterable of ``(table, pid)``. Trans-PDTs are
        normally created lazily at first touch, which is correct for a
        query that runs to completion immediately -- but a query admitted
        by the workload manager may be suspended for many rounds while
        concurrent DML commits. Pinning every scanned partition's
        Trans-PDT at admission captures the PDT layer references of that
        instant (commits are copy-on-write), so a suspended reader keeps
        a stable snapshot no matter what commits while it waits.
        """
        pinned = 0
        for table, pid in parts:
            txn.trans_for(table, pid)
            pinned += 1
        return pinned

    # ------------------------------------------------------------------ commit

    def commit(self, txn: DistributedTransaction) -> None:
        """Two-phase commit across all involved partitions."""
        if txn.finished:
            raise TransactionAborted("transaction already finished")
        cluster = self.cluster
        master = cluster.session_master
        involved = [(key, trans) for key, trans in txn.parts.items()
                    if len(trans)]
        if not involved:
            txn.finished = True
            return

        tracer = cluster.tracer
        with tracer.span("commit", txn=txn.txn_id,
                         partitions=len(involved)):
            # ---- phase 1: prepare ---------------------------------------------
            # Each participant validates, then force-logs the redo entries
            # it would apply *before* voting yes. Presumed abort: a
            # prepare record with no global decision resolves to abort.
            with tracer.span("txn.prepare"):
                logged = {}  # prepare record bytes per partition
                for (table, pid), trans in involved:
                    node = cluster.responsible(table, pid)
                    cluster.mpi.send(master, node,
                                     _COORDINATION_MESSAGE_BYTES)
                    if len(cluster.tables[table].pdt[pid].conflicts(trans)):
                        self.abort(txn)
                        raise TransactionAborted(
                            f"write-write conflict on {table} partition {pid}"
                        )
                    logged[(table, pid)] = cluster.wal.log_prepare(
                        table, pid, txn.txn_id, trans.layer.batches,
                        writer=node)
                    txn.prepared.append((table, pid))
                    cluster.mpi.send(node, master,
                                     _COORDINATION_MESSAGE_BYTES)
                    self._prepares.inc()
                self._check_constraints(txn, involved)
            self._crash_point("prepare.done", txn)

            # ---- phase 2: commit -----------------------------------------------
            # The decision record is the commit point: it is forced to the
            # global WAL before any partition applies, so a crash anywhere
            # in phase 2 still resolves to commit from the prepare records.
            with tracer.span("txn.commit"):
                cluster.wal.log_global(
                    "decision",
                    (txn.txn_id, "commit", [key for key, _ in involved]),
                    writer=master,
                )
                self._crash_point("decision.logged", txn)
                applied = 0
                for (table, pid), trans in involved:
                    node = cluster.responsible(table, pid)
                    cluster.mpi.send(master, node,
                                     _COORDINATION_MESSAGE_BYTES)
                    stored = cluster.tables[table]
                    stored.pdt[pid].commit(trans)
                    cluster.wal.log_commit(table, pid, txn.txn_id,
                                           writer=node)
                    if stored.is_replicated:
                        self._ship_log(logged[(table, pid)], node)
                    applied += 1
                    if applied == 1 and len(involved) > 1:
                        self._crash_point("commit.partial", txn)
        txn.finished = True
        for table in sorted({table for (table, _pid), _ in involved}):
            self.bump_epoch(table)
        self._outcomes.inc(outcome="commit")
        self._emit_outcome(txn, "commit", partitions=len(involved))

    def _crash_point(self, point: str, txn: DistributedTransaction) -> None:
        """Chaos injection point inside the 2PC state machine.

        If the armed hook raises :class:`SimulatedCrash` the transaction
        is left to recovery: the in-memory object is marked finished so
        no caller can re-drive it, and the WAL records written so far
        determine its fate in :meth:`resolve_in_doubt`.
        """
        if self.crash_hook is None:
            return
        try:
            self.crash_hook(point, txn)
        except SimulatedCrash:
            txn.finished = True
            raise

    def abort(self, txn: DistributedTransaction) -> None:
        # Settle any phase-1 prepare records so WAL scans never flag this
        # txn as in doubt (presumed abort would resolve it the same way,
        # but only after paying a recovery scan).
        for table, pid in txn.prepared:
            self.cluster.wal.log_abort(
                table, pid, txn.txn_id,
                writer=self.cluster.responsible(table, pid),
            )
        txn.prepared.clear()
        txn.parts.clear()
        txn.finished = True
        self._outcomes.inc(outcome="abort")
        self._emit_outcome(txn, "abort")

    # ----------------------------------------------------------------- recovery

    def resolve_in_doubt(self) -> Dict[str, list]:
        """Presumed-abort recovery, run by the (new) session master.

        Scans every partition WAL for prepared-but-unresolved
        transactions and settles each against the global WAL's decision
        records: with a logged commit decision the prepared redo entries
        are applied -- unless a commit record shows that partition
        already applied them, which keeps replay exactly-once -- and the
        missing commit record is appended; without a decision the
        transaction is presumed aborted and an abort record written so
        later scans skip it. Idempotent: a second pass finds nothing.
        """
        cluster = self.cluster
        master = cluster.session_master
        decisions = cluster.wal.decisions(reader=master)
        committed: Dict[int, list] = {}
        aborted: Dict[int, list] = {}
        for table in sorted(cluster.tables):
            stored = cluster.tables[table]
            for pid in range(stored.n_partitions):
                in_doubt = cluster.wal.partition_log(
                    table, pid, reader=master).in_doubt
                for txn_id in sorted(in_doubt):
                    node = cluster.responsible(table, pid)
                    if decisions.get(txn_id) == "commit":
                        stored.pdt[pid].apply(in_doubt[txn_id])
                        cluster.wal.log_commit(table, pid, txn_id,
                                               writer=node)
                        committed.setdefault(txn_id, []).append((table, pid))
                    else:
                        cluster.wal.log_abort(table, pid, txn_id,
                                              writer=node)
                        aborted.setdefault(txn_id, []).append((table, pid))
        for txn_id in sorted(committed):
            for table in sorted({t for t, _pid in committed[txn_id]}):
                self.bump_epoch(table)
        for outcome, settled in (("commit", committed), ("abort", aborted)):
            for txn_id in sorted(settled):
                self._resolved.inc(outcome=outcome)
                self._outcomes.inc(outcome=outcome)
                cluster.events.emit("txn", f"resolved_{outcome}", txn=txn_id,
                                    partitions=len(settled[txn_id]))
        return {"committed": sorted(committed), "aborted": sorted(aborted)}

    def _emit_outcome(self, txn, outcome: str, **attrs) -> None:
        self.cluster.events.emit("txn", f"2pc_{outcome}", txn=txn.txn_id,
                                 **attrs)

    # -------------------------------------------------------------- log shipping

    def _ship_log(self, payload: int, responsible: str) -> None:
        """Broadcast a replicated-table change to the other workers.

        What ships is the partition's prepare record, ``payload`` bytes;
        receivers apply it like a log replay (paper section 6, "Log
        Shipping"). In this in-process simulation all workers share the
        PdtStack object, so applying is implicit -- what we reproduce is
        the traffic.
        """
        for worker in self.cluster.workers:
            if worker != responsible:
                self.cluster.mpi.send(responsible, worker, payload)
                self._shipped.inc(payload)

    # ------------------------------------------------------------- constraints

    def _check_constraints(self, txn, involved) -> None:
        """Unique-key verification, node-local where partitioning allows.

        If the partition key is a subset of the unique key, each partition
        checks only its own data (paper section 6, "Referential
        Integrity"). Constraints that would need communication follow the
        default policy: concurrent updates to them are rejected -- here we
        simply verify against the current snapshot.
        """
        for (table, pid), trans in involved:
            stored = self.cluster.tables[table]
            pk = list(stored.schema.primary_key)
            if not pk:
                continue
            if not trans.has_inserts():
                continue
            pieces = list(stored.scan_pieces(pid, pk, trans=trans))
            if _repeats_a_key([concat_columns([p.columns[c] for p in pieces])
                               for c in pk]):
                self.abort(txn)
                raise ConstraintViolation(
                    f"unique key violated on {table} partition {pid}"
                )


def _repeats_a_key(columns) -> bool:
    """Do two rows of the row-aligned key ``columns`` hold the same key?
    One sort on all of them (a plain one for a single column, which
    ``lexsort`` is slower at); then equal keys are neighbours."""
    keys = [order_key(column) for column in columns]
    # (strings compare as their rank among the column's distinct values)
    keys = [np.unique(key, return_inverse=True)[1] if key.dtype == object
            else key for key in keys]
    order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
    same = np.ones(max(0, len(order) - 1), dtype=bool)
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    return bool(same.any())
