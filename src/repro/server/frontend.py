"""The server frontend: connections, tenants, and the result cache.

``ServerFrontend`` is the piece that turns the library-only reproduction
into a *server*: simulated clients open :class:`ClientConnection`\\ s,
speak the simple or extended protocol (:mod:`repro.server.protocol`) and
are routed to a tenant's admission queue in the workload manager. On
top sits the **result cache** (:mod:`repro.server.cache`), keyed by SQL
text + bound values + snapshot epochs: it answers repeat SELECTs
without executing at all -- a hit is bit-identical to a cold run
because the key includes the epoch of every referenced table and
commits bump epochs.

Invalidation is eager: the frontend registers an epoch listener with
the transaction manager, so the commit that bumps a table's epoch
evicts every dependent entry before the next request can look it up.
Results finishing *after* a concurrent commit are not inserted (their
epoch vector is stale by then) -- an in-flight reader can serve its
pinned snapshot, but can never poison the cache for the new epoch.

Everything is deterministic on the sim clock: connection ids, tenant
scheduling, cache contents and the wire-byte counters are bit-identical
across twin runs.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SqlError
from repro.engine.batch import Batch, batch_bytes
from repro.mpp.executor import REPLAN_QERROR_THRESHOLD
from repro.mpp.plan import QueryPlan, qerror
from repro.mpp.rewriter import ParallelRewriter
from repro.obs.monitor import sql_fingerprint
from repro.server import protocol as wire
from repro.server.cache import EpochKeyedCache, result_key
from repro.sql import parser as ast
from repro.sql.binder import _SelectBinder, execute_statement, parse_simple
from repro.sql.parser import SqlParser
from repro.workload import DEFAULT_TENANT


class PreparedStatement:
    """A parsed statement: a ``Parse`` result, or the unnamed one a
    simple ``Query`` runs once with no values.

    A SELECT is planned once, at its first Execute, into a template
    whose ``$N`` are slots; every Execute binds its values into it
    (:meth:`plan`). The template is planned again when it is stale: a
    table it reads is another object now (dropped and created again),
    the worker set changed, or a feedback entry the rewriter read while
    planning it moved by :data:`REPLAN_QERROR_THRESHOLD` or more (or
    appeared, or went).
    """

    def __init__(self, name: str, sql: str, stmt, n_params: int,
                 fingerprint: str):
        self.name = name
        self.sql = sql
        self.stmt = stmt
        self.n_params = n_params
        #: one fingerprint for every execution, whatever gets bound
        self.fingerprint = fingerprint
        #: the SELECT's plan template, and the workers it was planned for
        self.template: Optional[QueryPlan] = None
        self._workers: List[str] = []

    def plan(self, cluster, params: Tuple[object, ...]) -> QueryPlan:
        """The plan one Execute of this SELECT runs with ``params``."""
        if self.template is None or self._stale(cluster):
            logical = _SelectBinder(cluster, self.stmt).plan()
            self.template = ParallelRewriter(cluster).plan(logical)
            self._workers = list(cluster.workers)
        return self.template.bind(params) if params else self.template

    def _stale(self, cluster) -> bool:
        template = self.template
        if cluster.workers != self._workers or any(
                cluster.table(name) is not table
                for name, table in template.tables.items()):
            return True
        store = cluster.feedback
        entries = store.entries if store is not None else {}
        for signature, read in template.feedback.items():
            entry = entries.get(signature)
            if entry is None or read is None:
                if (entry is None) != (read is None):
                    return True
            elif qerror(entry.observed, read) >= REPLAN_QERROR_THRESHOLD:
                return True
        return False


class Portal:
    """A prepared statement bound to concrete parameter values."""

    def __init__(self, name: str, statement: PreparedStatement,
                 params: Tuple[object, ...]):
        self.name = name
        self.statement = statement
        self.params = params


class PendingResult:
    """An in-flight (or cache-answered) request's handle.

    ``result()`` blocks -- driving workload rounds -- until the rows are
    available, then returns the Batch (SELECT) or row count (DML).
    Cache hits are born finished.
    """

    def __init__(self, frontend: "ServerFrontend", conn: "ClientConnection",
                 query_id: Optional[int] = None,
                 value=None, cached: bool = False,
                 cache_key: Optional[str] = None,
                 epochs: Optional[tuple] = None,
                 tables: Optional[List[str]] = None):
        self.frontend = frontend
        self.conn = conn
        self.query_id = query_id
        self.cached = cached
        self._value = value
        self._done = query_id is None
        self._cache_key = cache_key
        self._epochs = epochs
        self._tables = tables or []

    def done(self) -> bool:
        if self._done:
            return True
        return not self.frontend.cluster.workload.is_live(self.query_id)

    def result(self):
        if self._done:
            return self._value
        cluster = self.frontend.cluster
        try:
            query_result = cluster.workload.gather(self.query_id)
        finally:
            self.conn.inflight.discard(self.query_id)
        batch = query_result.batch
        # insert into the result cache only if no commit moved any
        # referenced table's epoch while we executed -- a stale insert
        # would serve pre-commit rows at the post-commit epoch
        if (self._cache_key is not None
                and cluster.txn.epoch_vector(self._tables) == self._epochs):
            self.frontend.result_cache.store(
                self._cache_key, self._epochs, batch, self._tables)
        self.frontend._charge_result(batch)
        self._value = batch
        self._done = True
        return batch


class ClientConnection:
    """One simulated client and its protocol state; its ``conn_id`` is
    the ``session`` of every query it submits."""

    def __init__(self, frontend: "ServerFrontend", conn_id: int,
                 tenant: str):
        self.frontend = frontend
        self.conn_id = conn_id
        self.tenant = tenant
        self.state = "open"
        self.opened_sim = frontend.cluster.sim_clock.seconds
        self.queries = 0
        self.prepared: Dict[str, PreparedStatement] = {}
        self.portals: Dict[str, Portal] = {}
        self.inflight: set = set()

    # ------------------------------------------------------ simple protocol

    def simple_query(self, sql: str):
        """``Query``: parse, execute, return rows (or DML row count)."""
        return self.query_async(sql).result()

    def query_async(self, sql: str) -> PendingResult:
        """Submit a simple-protocol statement without gathering it: an
        unnamed statement, never stored, run once with no values."""
        self._check_open()
        self.queries += 1
        frontend = self.frontend
        frontend._charge_received(wire.Query(sql))
        frontend._count_request(self.tenant, "simple")
        statement = PreparedStatement(
            "", sql, parse_simple(sql), 0, sql_fingerprint(sql))
        return self._run(statement, ())

    # ---------------------------------------------------- extended protocol

    def parse(self, name: str, sql: str) -> PreparedStatement:
        """``Parse``: register a named statement template."""
        self._check_open()
        frontend = self.frontend
        frontend._charge_received(wire.Parse(name, sql))
        frontend._count_request(self.tenant, "parse")
        parser = SqlParser(sql)
        stmt = parser.parse()
        prepared = PreparedStatement(
            name, sql, stmt, parser.parameter_count(), sql_fingerprint(sql))
        self.prepared[name] = prepared
        frontend._charge_sent(wire.ParseComplete())
        return prepared

    def bind(self, statement: str, params=(), portal: str = "") -> Portal:
        """``Bind``: attach parameter values, creating a portal."""
        self._check_open()
        frontend = self.frontend
        prepared = self.prepared.get(statement)
        if prepared is None:
            raise SqlError(f"no prepared statement named {statement!r}")
        params = tuple(params)
        frontend._charge_received(wire.Bind(portal, statement, params))
        frontend._count_request(self.tenant, "bind")
        if len(params) != prepared.n_params:
            raise SqlError(
                f"statement {statement!r} uses {prepared.n_params} "
                f"parameter(s), {len(params)} bound")
        bound = Portal(portal, prepared, params)
        self.portals[portal] = bound
        frontend._charge_sent(wire.BindComplete())
        return bound

    def execute(self, portal: str = ""):
        """``Execute``: run a bound portal to completion."""
        return self.execute_async(portal).result()

    def execute_async(self, portal: str = "") -> PendingResult:
        """Submit a bound portal without gathering it."""
        self._check_open()
        frontend = self.frontend
        bound = self.portals.get(portal)
        if bound is None:
            raise SqlError(f"no bound portal named {portal!r}")
        frontend._charge_received(wire.Execute(portal))
        frontend._count_request(self.tenant, "execute")
        self.queries += 1
        return self._run(bound.statement, bound.params)

    def _run(self, statement: PreparedStatement,
             params: Tuple[object, ...]) -> PendingResult:
        """The one request body of ``Query`` and ``Execute``."""
        frontend = self.frontend
        if isinstance(statement.stmt, ast.SelectStatement):
            return frontend._submit_select(self, statement, params)
        value = execute_statement(frontend.cluster, statement.stmt, params)
        frontend._charge_sent(wire.CommandComplete("OK", int(
            value if isinstance(value, int) else getattr(value, "n", 0))))
        frontend._charge_sent(wire.ReadyForQuery())
        return PendingResult(frontend, self, value=value)

    # -------------------------------------------------------------- closing

    def close(self, reason: str = "client") -> int:
        """Terminate the connection; cancels in-flight queries.

        Returns how many in-flight queries were cancelled.
        """
        if self.state != "open":
            return 0
        self.frontend._charge_received(wire.Terminate())
        cancelled = 0
        for qid in sorted(self.inflight):
            if self.frontend.cluster.workload.cancel(
                    qid, reason="connection dropped"):
                cancelled += 1
        self.inflight.clear()
        self.state = "closed"
        self.frontend._on_close(self, reason, cancelled)
        return cancelled

    def _check_open(self) -> None:
        if self.state != "open":
            raise SqlError(f"connection {self.conn_id} is {self.state}")


class ServerFrontend:
    """The wire-protocol frontend of one cluster (``cluster.serve()``)."""

    def __init__(self, cluster):
        self.cluster = cluster
        registry = cluster.registry
        result_entries = cluster.config.server_result_cache_entries
        self.result_cache = (EpochKeyedCache(result_entries, registry)
                             if result_entries else None)
        self.connections: "OrderedDict[int, ClientConnection]" = OrderedDict()
        self._conn_ids = itertools.count(1)
        #: statement the tenant-storm chaos fault submits; None disables
        self.storm_statement: Optional[str] = None
        self._g_open = registry.gauge(
            "server_connections_open", "Open client connections",
            sticky=True)
        self._c_conns = registry.counter(
            "server_connections_total", "Connections accepted, per tenant",
            labels=("tenant",))
        self._c_dropped = registry.counter(
            "server_connections_dropped_total",
            "Connections dropped (client hangup or chaos)")
        self._c_requests = registry.counter(
            "server_requests_total", "Protocol requests, per tenant/kind",
            labels=("tenant", "kind"))
        self._c_recv = registry.counter(
            "server_bytes_received_total", "Wire bytes from clients")
        self._c_sent = registry.counter(
            "server_bytes_sent_total", "Wire bytes to clients")
        self._g_open.set(0)
        # the commit that bumps an epoch evicts dependents immediately
        cluster.txn.epoch_listeners.append(self._on_epoch_bump)
        cluster.frontend = self

    # -------------------------------------------------------------- tenants

    def add_tenant(self, name: str, weight: int = 1, priority: int = 0,
                   max_concurrent: int = 0):
        """Register (or reconfigure) a tenant with the admission policy."""
        return self.cluster.workload.admission.register_tenant(
            name, weight=weight, priority=priority,
            max_concurrent=max_concurrent)

    # ---------------------------------------------------------- connections

    def connect(self, tenant: str = DEFAULT_TENANT) -> ClientConnection:
        """Accept a client connection routed to ``tenant``."""
        admission = self.cluster.workload.admission
        if tenant not in admission.tenants:
            admission.register_tenant(tenant)
        conn = ClientConnection(self, next(self._conn_ids), tenant)
        self.connections[conn.conn_id] = conn
        self._c_conns.inc(tenant=tenant)
        self._g_open.set(self._open_count())
        return conn

    def drain(self) -> None:
        """Drive workload rounds until every submitted query is terminal."""
        self.cluster.workload.drain()

    def _open_count(self) -> int:
        return sum(1 for c in self.connections.values()
                   if c.state == "open")

    def _on_close(self, conn: ClientConnection, reason: str,
                  cancelled: int) -> None:
        if reason != "client":
            self._c_dropped.inc()
        self._g_open.set(self._open_count())
        self.cluster.events.emit("server", "conn.closed", conn=conn.conn_id,
                                 tenant=conn.tenant, reason=reason,
                                 cancelled=cancelled)

    # ------------------------------------------------------------ execution

    def _submit_select(self, conn: ClientConnection,
                       statement: PreparedStatement,
                       params: Tuple[object, ...]) -> PendingResult:
        """Answer a SELECT from the result cache, or submit its plan
        bound with ``params``. A read of a ``vh$`` table neither looks
        up nor stores: no commit moves a system table's epoch."""
        cluster = self.cluster
        stmt = statement.stmt
        tables = stmt.tables()
        epochs = cluster.txn.epoch_vector(tables)
        key = None
        if self.result_cache is not None and not any(
                cluster.table(name).is_virtual for name in tables):
            key = result_key(statement.sql, params)
            batch = self.result_cache.lookup(key, epochs)
            if batch is not None:
                self._charge_result(batch)
                return PendingResult(self, conn, value=batch, cached=True)
        query_id = cluster.workload.submit(
            statement.plan(cluster, params), tenant=conn.tenant,
            session=conn.conn_id, statement=statement.sql,
            fingerprint=statement.fingerprint)
        conn.inflight.add(query_id)
        return PendingResult(self, conn, query_id=query_id,
                             cache_key=key, epochs=epochs, tables=tables)

    # ------------------------------------------------------ wire accounting

    def _charge_received(self, message) -> None:
        self._c_recv.inc(wire.wire_size(message))

    def _charge_sent(self, message) -> None:
        self._c_sent.inc(wire.wire_size(message))

    def _count_request(self, tenant: str, kind: str) -> None:
        self._c_requests.inc(tenant=tenant, kind=kind)

    def _charge_result(self, batch) -> None:
        if isinstance(batch, Batch):
            self._charge_sent(
                wire.RowDescription(tuple(batch.column_names)))
            self._c_sent.inc(batch_bytes(batch))
            self._charge_sent(wire.CommandComplete("SELECT", batch.n))
        self._charge_sent(wire.ReadyForQuery())

    # --------------------------------------------------------- invalidation

    def _on_epoch_bump(self, table: str, epoch: int) -> None:
        if self.result_cache is not None:
            self.result_cache.invalidate_table(table)

    # ---------------------------------------------------------------- chaos

    def chaos_drop_connection(self, tenant: Optional[str] = None) -> str:
        """Drop the oldest open connection (optionally of one tenant)."""
        candidates = [c for c in self.connections.values()
                      if c.state == "open"
                      and (tenant is None or c.tenant == tenant)]
        if not candidates:
            return "no open connection to drop"
        conn = min(candidates, key=lambda c: c.conn_id)
        cancelled = conn.close(reason="chaos")
        return (f"dropped conn {conn.conn_id} (tenant {conn.tenant}, "
                f"{cancelled} in-flight cancelled)")

    def chaos_storm(self, tenant: Optional[str] = None,
                    count: int = 3) -> str:
        """Burst-submit ``count`` queries for one tenant (async only --
        this runs inside a workload round hook, so it must never gather).
        """
        if self.storm_statement is None:
            return "skipped (no storm statement configured)"
        if tenant is None:
            open_tenants = sorted(
                {c.tenant for c in self.connections.values()
                 if c.state == "open"}) or [DEFAULT_TENANT]
            tenant = open_tenants[0]
        conn = self.connect(tenant=tenant)
        for _ in range(max(1, count)):
            conn.query_async(self.storm_statement)
        return f"storm: {max(1, count)} queries burst at tenant {tenant}"

    # ------------------------------------------------------------ reporting

    def stats(self) -> Dict[str, object]:
        return {
            "connections": len(self.connections),
            "open": self._open_count(),
            "result_cache": (self.result_cache.stats()
                             if self.result_cache else None),
            "bytes_sent": int(self._c_sent.total()),
            "bytes_received": int(self._c_recv.total()),
        }
