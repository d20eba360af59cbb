"""Queryable introspection: vh$ system tables and EXPLAIN ANALYZE.

The cluster describes itself through its own SQL engine:

* **System tables** -- :class:`SystemCatalog` registers fifteen virtual
  ``vh$`` tables (:data:`SYSTEM_TABLES`) whose partitions are live
  snapshots of the metrics registry, the HDFS block map, per-column
  compression statistics, PDT overlay sizes, the cluster event log, the
  workload manager's query records (``vh$queries``: live queries plus
  the bounded ring of terminal ones, each terminal one with its summary
  columns; ``session`` is the server connection, 0 for a library call),
  the chaos controller's fault plan, the cardinality feedback store, the
  flight recorder's sampled metric history and alert ledger, and the
  continuous profiler's per-operator stats and top-k hot paths. A
  :class:`VirtualTable` quacks like a
  :class:`~repro.storage.table.StoredTable` (schema, replication,
  ``scan_partition``), so the binder, rewriter and streaming executor
  treat them exactly like replicated base tables -- a ``SELECT`` against
  ``vh$metrics`` runs through the normal MPP path.

* **EXPLAIN ANALYZE** -- :meth:`VectorHCluster.explain_analyze` executes
  a logical plan and :func:`annotate_plan` renders the physical plan
  annotated with per-operator *actuals*:
  rows produced, simulated stream time, wire bytes per exchange (down to
  the individual node->node link), MinMax blocks skipped vs scanned, and
  the scan-locality fraction, all reconciled against a registry snapshot
  diff taken around the execution.

Import note: this module pulls in storage/mpp layers, so ``repro.obs``
must not import it eagerly (``repro.obs.events`` has no such cycle and
is exported there instead).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import StorageError
from repro.common.types import FLOAT64, INT64, STRING, ColumnType
from repro.mpp import plan as P
from repro.obs.metrics import flatten, labels_text
from repro.storage.schema import Column, TableSchema
from repro.storage.table import ScanResult

# ---------------------------------------------------------------------------
# Virtual tables
# ---------------------------------------------------------------------------

class VirtualTable:
    """A system table: a schema plus a snapshot function.

    Duck-typed against :class:`~repro.storage.table.StoredTable` for the
    read path only -- replicated (every node could compute the snapshot),
    single "partition", no storage, no PDTs. The snapshot is computed at
    scan time, so a query sees the cluster state at the moment its scan
    operator first pulls.
    """

    is_virtual = True
    is_replicated = True
    n_partitions = 1
    #: no stored partitions: cardinality estimates see 0 stable rows
    partitions: Tuple = ()

    def __init__(self, cluster, schema: TableSchema,
                 snapshot_fn: Callable[[object], List[tuple]]):
        self.cluster = cluster
        self.schema = schema
        self._snapshot_fn = snapshot_fn

    @property
    def name(self) -> str:
        return self.schema.name

    def scan_partition(self, pid: int, columns: Sequence[str],
                       predicates: Sequence[Tuple[str, str, object]] = (),
                       trans=None, reader: Optional[str] = None,
                       pool=None) -> ScanResult:
        rows = self._snapshot_fn(self.cluster)  # in schema column order
        arrays = _columns_from_rows(self.schema, rows)
        n = len(rows)
        cols = {c: arrays[c] for c in dict.fromkeys(columns)}
        return ScanResult(cols, np.arange(n, dtype=np.int64), n)


def _columns_from_rows(schema: TableSchema,
                       rows: List[tuple]) -> Dict[str, np.ndarray]:
    return {col.name: col.ctype.engine_array([r[i] for r in rows])
            for i, col in enumerate(schema.columns)}


# ---------------------------------------------------------------------------
# Snapshot builders (one per system table; rows in schema column order)
# ---------------------------------------------------------------------------

def _metrics_rows(cluster) -> List[tuple]:
    return [(name, kind, labels_text(pairs), value)
            for name, kind, pairs, value in flatten(cluster.registry.copy())]


def _blocks_rows(cluster) -> List[tuple]:
    rows = []
    for tname in sorted(cluster.tables):
        stored = cluster.tables[tname]
        for pid, store in enumerate(stored.partitions):
            for col in stored.schema.column_names:
                for ref in store.blocks.get(col, ()):
                    rows.append((tname, pid, col, ref.path, ref.row_start,
                                 ref.n_rows, ref.length, ref.scheme))
    return rows


def _partitions_rows(cluster) -> List[tuple]:
    placement = cluster.placement
    rows = []
    for tname, pid, files in placement.partition_files():
        stored = cluster.tables[tname]
        node = placement.owners(tname)[pid]
        store = stored.partitions[pid]
        rows.append((tname, pid, node, len(placement.holders(files)),
                     store.n_stable, stored.pdt[pid].total_entries(),
                     store.total_bytes(),
                     int(placement.is_local(files, node))))
    return sorted(rows)


def _compression_rows(cluster) -> List[tuple]:
    totals: Dict[Tuple[str, str, str], Dict[str, int]] = {}
    for tname in sorted(cluster.tables):
        stored = cluster.tables[tname]
        for store in stored.partitions:
            for (col, scheme), stats in store.compression_stats().items():
                entry = totals.setdefault(
                    (tname, col, scheme),
                    {"blocks": 0, "raw_bytes": 0, "encoded_bytes": 0},
                )
                for k in entry:
                    entry[k] += stats[k]
    rows = []
    for (tname, col, scheme), entry in sorted(totals.items()):
        encoded = entry["encoded_bytes"]
        ratio = entry["raw_bytes"] / encoded if encoded else 0.0
        rows.append((tname, col, scheme, entry["blocks"],
                     entry["raw_bytes"], encoded, ratio))
    return rows


def _pdt_rows(cluster) -> List[tuple]:
    rows = []
    for tname in sorted(cluster.tables):
        stored = cluster.tables[tname]
        for pid, stack in enumerate(stored.pdt):
            rows.append((tname, pid, len(stack.read), len(stack.write),
                         stack.total_entries(), stack.version))
    return rows


def _events_rows(cluster) -> List[tuple]:
    return [(e.seq, e.sim_time, e.wall_time, e.source, e.kind, e.detail)
            for e in cluster.events]


def _queries_rows(cluster) -> List[tuple]:
    """One row per workload-manager query, including live ones.

    Sourced from the manager's records (live + the terminal ring)
    rather than the tracer ring or the registry, so queued/running/
    cancelled queries are visible while in flight and the table
    survives ``metrics().reset()``. From ``fingerprint`` on, the summary
    a query gets at its terminal state (empty / zero while live); the
    query log is ``WHERE state NOT IN ('queued', 'running')``.
    """
    import time as _time
    now_wall = _time.perf_counter()
    now_sim = cluster.sim_clock.seconds
    rows = []
    for rec in cluster.workload.query_records():
        live = rec.state in ("queued", "running")
        end_wall = now_wall if live else rec.finish_wall
        end_sim = now_sim if live else rec.finish_sim
        rows.append((
            rec.query_id, rec.session_id, rec.state, rec.root_label,
            rec.statement,
            (end_wall - rec.submit_wall) * 1e3,
            (end_sim - rec.submit_sim) * 1e3,
            rec.wait_sim * 1e3, rec.rounds, rec.retries,
            rec.fingerprint, rec.plan_signature, rec.rows,
            rec.peak_memory_bytes, rec.wire_bytes, rec.replans,
            rec.max_qerror, rec.dominant_op, rec.dominant_share, rec.tenant,
        ))
    return rows


def _faults_rows(cluster) -> List[tuple]:
    """The installed chaos controller's plan, with per-fault outcomes."""
    chaos = cluster.chaos
    if chaos is None:
        return []
    fired = {f.spec.key(): f for f in chaos.fired}
    rows = []
    for i, spec in enumerate(chaos.plan):
        hit = fired.get(spec.key())
        rows.append((
            i, spec.at, spec.kind, spec.target, spec.param, spec.count,
            "fired" if hit is not None else "pending",
            hit.detail if hit is not None else "",
            int(hit.invariant_ok) if hit is not None else 1,
        ))
    return rows


def _tenants_rows(cluster) -> List[tuple]:
    """Per-tenant admission state: weights, quotas, WFQ pass values and
    lifetime admitted/finished counts. Wall-clock free, so twin
    deterministic runs show identical contents."""
    return [
        (t.name, t.weight, t.priority, t.max_concurrent,
         len(t.queue), t.running, t.admitted, t.finished, t.pass_value)
        for t in cluster.workload.admission.tenants.values()
    ]


def _connections_rows(cluster) -> List[tuple]:
    """The server frontend's client connections (empty until
    ``cluster.serve()`` has been called)."""
    frontend = cluster.frontend
    if frontend is None:
        return []
    return [
        (c.conn_id, c.tenant, c.state, c.queries, len(c.inflight),
         len(c.prepared), c.opened_sim)
        for c in frontend.connections.values()
    ]


def _plan_feedback_rows(cluster) -> List[tuple]:
    """The cardinality feedback store: what the rewriter remembers."""
    store = cluster.feedback
    if store is None:
        return []
    return [(e.signature, e.estimated, e.observed, e.hits, e.updated)
            for e in store.snapshot()]


def _schema(name: str, columns: List[Tuple[str, ColumnType]]) -> TableSchema:
    return TableSchema(name=name,
                       columns=[Column(n, t) for n, t in columns])


#: (name, columns, snapshot builder) for every system table
SYSTEM_TABLES = (
    ("vh$metrics",
     [("metric", STRING), ("kind", STRING), ("labels", STRING),
      ("value", FLOAT64)],
     _metrics_rows),
    ("vh$blocks",
     [("table", STRING), ("partition", INT64), ("column", STRING),
      ("path", STRING), ("row_start", INT64), ("n_rows", INT64),
      ("bytes", INT64), ("scheme", STRING)],
     _blocks_rows),
    ("vh$partitions",
     [("table", STRING), ("partition", INT64), ("responsible", STRING),
      ("replicas", INT64), ("rows", INT64), ("pdt_entries", INT64),
      ("bytes", INT64), ("local", INT64)],
     _partitions_rows),
    ("vh$compression",
     [("table", STRING), ("column", STRING), ("scheme", STRING),
      ("blocks", INT64), ("raw_bytes", INT64), ("encoded_bytes", INT64),
      ("ratio", FLOAT64)],
     _compression_rows),
    ("vh$pdt",
     [("table", STRING), ("partition", INT64), ("read_entries", INT64),
      ("write_entries", INT64), ("total_entries", INT64),
      ("version", INT64)],
     _pdt_rows),
    ("vh$events",
     [("seq", INT64), ("sim_time", FLOAT64), ("wall_time", FLOAT64),
      ("source", STRING), ("kind", STRING), ("detail", STRING)],
     _events_rows),
    ("vh$queries",
     [("query", INT64), ("session", INT64), ("state", STRING),
      ("root", STRING), ("statement", STRING), ("wall_ms", FLOAT64),
      ("sim_ms", FLOAT64), ("wait_ms", FLOAT64), ("rounds", INT64),
      ("retries", INT64), ("fingerprint", STRING), ("plan", STRING),
      ("rows", INT64), ("peak_memory", INT64), ("wire_bytes", INT64),
      ("replans", INT64), ("max_qerror", FLOAT64), ("dominant", STRING),
      ("dominant_share", FLOAT64), ("tenant", STRING)],
     _queries_rows),
    ("vh$faults",
     [("idx", INT64), ("at", FLOAT64), ("kind", STRING),
      ("target", STRING), ("param", FLOAT64), ("count", INT64),
      ("status", STRING), ("detail", STRING), ("invariant_ok", INT64)],
     _faults_rows),
    ("vh$plan_feedback",
     [("signature", STRING), ("estimated", FLOAT64),
      ("observed", FLOAT64), ("hits", INT64), ("updated", FLOAT64)],
     _plan_feedback_rows),
    ("vh$metrics_history",
     [("sample", INT64), ("sim_time", FLOAT64), ("metric", STRING),
      ("labels", STRING), ("value", FLOAT64)],
     lambda cluster: cluster.monitor.history.rows()),
    ("vh$alerts",
     [("seq", INT64), ("rule", STRING), ("metric", STRING),
      ("state", STRING), ("value", FLOAT64), ("threshold", FLOAT64),
      ("raised_sim", FLOAT64), ("cleared_sim", FLOAT64),
      ("peak", FLOAT64)],
     lambda cluster: cluster.monitor.health.rows()),
    ("vh$tenants",
     [("tenant", STRING), ("weight", INT64), ("priority", INT64),
      ("quota", INT64), ("queued", INT64),
      ("running", INT64), ("admitted", INT64), ("finished", INT64),
      ("wfq_pass", INT64)],
     _tenants_rows),
    ("vh$connections",
     [("conn", INT64), ("tenant", STRING), ("state", STRING),
      ("queries", INT64), ("inflight", INT64), ("prepared", INT64),
      ("opened_sim", FLOAT64)],
     _connections_rows),
    ("vh$operator_stats",
     [("operator", STRING), ("queries", INT64), ("instances", INT64),
      ("rows_in", INT64), ("rows_out", INT64), ("batches", INT64),
      ("net_bytes", INT64), ("wall_s", FLOAT64), ("rows_per_s", FLOAT64)],
     lambda cluster: cluster.profiler.rows()),
    ("vh$hot_paths",
     [("operator", STRING), ("kernel", STRING), ("calls", INT64),
      ("rows", INT64), ("bytes", INT64), ("wall_s", FLOAT64),
      ("share", FLOAT64)],
     lambda cluster: cluster.profiler.hot_paths()),
)


class SystemCatalog:
    """The cluster's virtual-table namespace (``vh$*``)."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._tables: Dict[str, VirtualTable] = {}
        for name, columns, builder in SYSTEM_TABLES:
            self._tables[name] = VirtualTable(
                cluster, _schema(name, columns), builder
            )

    def lookup(self, name: str) -> Optional[VirtualTable]:
        return self._tables.get(name)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------

def _series_delta(before, after, name) -> Dict[tuple, float]:
    """Per-label-key increase of one counter family between snapshots."""
    base = before.get(name, {})
    return {key: value - base.get(key, 0)
            for key, value in after.get(name, {}).items()}


def annotate_plan(result, before, after) -> str:
    """Render the plan that produced ``result`` with per-operator actuals,
    each read from the profile node of that plan node.

    Per operator: ``rows`` (tuples produced, summed over streams) and
    ``stream_time`` (slowest stream's wall time -- the per-round critical
    path the simulated clock charges). Each operator the planner
    annotated also shows its estimated rows (``est``, tagged
    ``(fb)`` when feedback-backed) and the q-error
    ``max(actual/est, est/actual)`` -- misestimates are visible without
    reading the feedback store. Exchanges add total wire traffic plus one
    line per node->node link; scans add MinMax skipped/total blocks for
    their table and, when they carry predicates, the rows their exact
    filter dropped (``rows`` is what left the scan). The footer
    reconciles totals against the registry snapshot diff.
    """
    exchange_stats = {stats["plan"]: stats for stats in result.exchanges}
    scanned_delta = _series_delta(before, after, "minmax_blocks_scanned_total")
    skipped_delta = _series_delta(before, after, "minmax_blocks_skipped_total")
    filtered_delta = _series_delta(before, after, "scan_rows_filtered_total")

    def actuals_of(node) -> str:
        prof = result.profile_of(node)
        actuals: List[str] = []
        if prof is not None:
            actuals.append(f"rows={prof.tuples_out}")
            actuals.append(f"stream_time={prof.cum_time * 1e3:.3f}ms")
            if prof.lookups:
                actuals.append(f"lookup={','.join(sorted(prof.lookups))}")
        ann = result.qplan.annotations.get(node)
        if ann is not None:
            fb = "(fb)" if ann.source == "feedback" else ""
            actuals.append(f"est={ann.rows:.0f}{fb}")
            if prof is not None:
                # a key-filtered scan was estimated before that filter
                judged = prof.tuples_out + prof.key_filtered
                actuals.append(f"q={ann.qerror(judged):.1f}")
        stats = exchange_stats.get(node)  # of this exchange, if it is one
        if stats is not None:
            actuals.append(f"wire={int(stats['bytes'])}B"
                           f"/{int(stats['messages'])}msgs")
        if isinstance(node, P.PScan):
            scanned = scanned_delta.get((node.table,), 0)
            skipped = skipped_delta.get((node.table,), 0)
            if scanned or skipped:
                total = int(scanned + skipped)
                actuals.append(f"minmax={int(skipped)}/{total} "
                               "blocks skipped")
            if node.skip_predicates:
                filtered = filtered_delta.get((node.table,), 0)
                actuals.append(f"filtered={int(filtered)}")
            if node.key_filter and prof is not None:
                actuals.append(f"key_filtered={prof.key_filtered}")
        text = f"  [{' '.join(actuals)}]" if actuals else ""
        if stats is not None:
            for link in stats.get("links", ()):
                if not link["bytes"]:
                    continue
                mode = "local" if link["local"] else "remote"
                text += (
                    f"\n  . link {link['src']}->{link['dst']}: "
                    f"{int(link['bytes'])}B {int(link['messages'])}msgs "
                    f"{int(link['tuples'])}t ({mode})")
        return text

    lines = [result.qplan.root.pretty(suffix=actuals_of)]

    # footer: query-level actuals reconciled with the registry diff
    reads = _series_delta(before, after, "hdfs_read_bytes_total")
    local = sum(v for k, v in reads.items() if k[1] == "short_circuit")
    remote = sum(v for k, v in reads.items() if k[1] == "remote")
    total_read = local + remote
    fraction = 1.0 if total_read == 0 else local / total_read
    lines.append("-- actuals "
                 "------------------------------------------------------")
    lines.append(f"-- elapsed={result.elapsed * 1e3:.3f}ms "
                 f"simulated={result.simulated_parallel_seconds * 1e3:.3f}ms")
    lines.append(f"-- network: {result.network_bytes} bytes in "
                 f"{result.network_messages} messages; "
                 f"read: {result.bytes_read} bytes")
    lines.append(f"-- scan locality: {fraction:.1%} short-circuit "
                 f"({int(local)} local / {int(remote)} remote bytes)")
    tables = sorted(set(scanned_delta) | set(skipped_delta))
    for key in tables:
        scanned = scanned_delta.get(key, 0)
        skipped = skipped_delta.get(key, 0)
        if scanned or skipped:
            lines.append(f"-- minmax[{key[0]}]: scanned={int(scanned)} "
                         f"skipped={int(skipped)} blocks")
    if result.peak_node_memory:
        peaks = " ".join(f"{n}={b}" for n, b in
                         sorted(result.peak_node_memory.items()))
        lines.append(f"-- peak memory bytes: {peaks}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Catalog lookup helper shared by binder/rewriter/executor
# ---------------------------------------------------------------------------

def resolve_table(cluster, name: str):
    """Resolve ``name`` against base tables, then the system catalog."""
    stored = cluster.tables.get(name)
    if stored is not None:
        return stored
    virtual = cluster.catalog.lookup(name)
    if virtual is not None:
        return virtual
    raise StorageError(f"no such table {name}")
