"""The server frontend: protocol, tenants, WFQ admission, epoch caches.

Covers the simple and extended (parse/bind/execute) protocols, the
weighted-fair tenant scheduler (2:1 weights admit ~2:1 under
saturation, bit-identical twin runs), the snapshot-epoch result cache
(hits bit-identical to cold runs, commit-driven invalidation,
correctness under a concurrent committing writer), the one execution
path every entry point funnels into, the
``vh$tenants`` / ``vh$connections`` system tables, connection-drop and
tenant-storm chaos faults, and the cardinality-feedback checkpoint
that survives a cluster restart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import ChaosController, FaultPlan, FaultSpec, SERVING_KINDS
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import SqlError
from repro.common.types import INT64
from repro.mpp.rewriter import ParallelRewriter
from repro.server import EpochKeyedCache, ServerFrontend
from repro.server.cache import result_key
from repro.server import protocol as wire
from repro.sql import execute_sql
from repro.storage import Column, TableSchema
from repro.workload import DEFAULT_TENANT, STRIDE1

N_ROWS = 8000
SUM_B = int((np.arange(N_ROWS) % 7).sum())


def _served_cluster(n_nodes: int = 4, **overrides):
    config = Config().scaled_for_tests()
    config.workload_deterministic = True
    for key, value in overrides.items():
        setattr(config, key, value)
    c = VectorHCluster(n_nodes=n_nodes, config=config)
    c.create_table(TableSchema(
        "t", [Column("a", INT64), Column("b", INT64)],
        partition_key=("a",), n_partitions=4, clustered_on=("a",)))
    a = np.arange(N_ROWS)
    c.bulk_load("t", {"a": a, "b": a % 7})
    return c, c.serve()


# ------------------------------------------------------------- protocol


class TestProtocol:
    def test_encoding_layout(self):
        msg = wire.Query("SELECT 1")
        data = wire.encode(msg)
        assert data[:1] == b"Q"
        assert int.from_bytes(data[1:5], "big") == 4 + len(b"SELECT 1")
        assert wire.wire_size(msg) == len(data)

    def test_sizes_are_deterministic(self):
        a = wire.wire_size(wire.Bind("", "q", (1, "x")))
        b = wire.wire_size(wire.Bind("", "q", (1, "x")))
        assert a == b
        assert wire.wire_size(wire.Terminate()) == 5


# ---------------------------------------------------- one execution path


def _bound(cluster, sql):
    """The logical plan the SQL entry points bind ``sql`` to."""
    from repro.sql.binder import _SelectBinder
    from repro.sql.parser import SqlParser
    return _SelectBinder(cluster, SqlParser(sql).parse()).plan()


def _extended(srv, sql, *params):
    conn = srv.connect()
    conn.parse("q", sql)
    conn.bind("q", params)
    return conn.execute()


def _contents(cluster):
    """Every row of ``t``, in key order, to the bit."""
    table = execute_sql(cluster, "SELECT a, b FROM t ORDER BY a")
    return {name: (column.dtype, column.tobytes())
            for name, column in table.columns.items()}


class TestOneExecutionPath:
    """Every public way to run a query is submit + gather on the
    workload manager: same rows to the bit, one query-log row each."""

    SQL = ("SELECT b, sum(a) AS s, count(*) AS n FROM t "
           "WHERE a < 5000 GROUP BY b ORDER BY b")
    ENTRY_POINTS = {
        "cluster.query":
            lambda c, srv, sql: c.query(_bound(c, sql)).batch,
        "planned":
            lambda c, srv, sql: c.query(
                ParallelRewriter(c).plan(_bound(c, sql))).batch,
        "execute_sql":
            lambda c, srv, sql: execute_sql(c, sql),
        "server.simple":
            lambda c, srv, sql: srv.connect().simple_query(sql),
        "server.extended":
            lambda c, srv, sql: _extended(
                srv, sql.replace("5000", "$1"), 5000),
    }

    @pytest.fixture(scope="class")
    def expected(self):
        c, _srv = _served_cluster()
        return c.query(_bound(c, self.SQL)).batch

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_same_rows_and_one_log_row(self, entry, expected):
        c, srv = _served_cluster()
        batch = self.ENTRY_POINTS[entry](c, srv, self.SQL)
        assert list(batch.columns) == list(expected.columns)
        for name, column in expected.columns.items():
            assert batch.columns[name].dtype == column.dtype
            assert batch.columns[name].tobytes() == column.tobytes()
        logged = execute_sql(c, "SELECT query, state FROM vh$queries "
                             "WHERE state NOT IN ('queued', 'running')")
        assert logged.columns["state"].tolist() == ["finished"]
        [record] = c.workload.query_records()[:-1]  # minus the log scan
        assert record.query_id == logged.columns["query"][0]

    #: (spelled-out text, the same with ``$N``, its values, rows touched)
    DML = {
        "update": ("UPDATE t SET b = 9 WHERE a IN (10, 4000)",
                   "UPDATE t SET b = $3 WHERE a IN ($1, $2)",
                   (10, 4000, 9), 2),
        "delete": ("DELETE FROM t WHERE a BETWEEN 100 AND 199",
                   "DELETE FROM t WHERE a BETWEEN $1 AND $2",
                   (100, 199), 100),
        "insert": ("INSERT INTO t (a, b) VALUES (900001, 3)",
                   "INSERT INTO t (a, b) VALUES ($1, $2)",
                   (900001, 3), 1),
    }

    @pytest.mark.parametrize("kind", sorted(DML))
    def test_dml_same_ack_and_table(self, kind):
        sql, template, params, touched = self.DML[kind]
        runs = {
            "execute_sql": lambda c, srv: execute_sql(c, sql),
            "server.simple": lambda c, srv: srv.connect().simple_query(sql),
            "server.extended": lambda c, srv: _extended(
                srv, template, *params),
        }
        outcomes = {}
        for entry, run in runs.items():
            c, srv = _served_cluster()
            ack = run(c, srv)
            outcomes[entry] = (ack, _contents(c))
        assert outcomes["execute_sql"][0] == touched
        assert outcomes["server.simple"] == outcomes["execute_sql"]
        assert outcomes["server.extended"] == outcomes["execute_sql"]
        assert outcomes["execute_sql"][1] != _contents(_served_cluster()[0])

    def test_prepared_explain_prints_the_plan_its_execute_runs(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        conn.parse("x", "EXPLAIN SELECT b FROM t WHERE a = $1")
        conn.bind("x", (4321,), portal="x")
        text = "\n".join(conn.execute("x").columns["plan"].tolist())
        conn.parse("q", "SELECT b FROM t WHERE a = $1")
        conn.bind("q", (4321,), portal="q")
        executed = c.workload.gather(conn.execute_async("q").query_id)
        assert executed.batch.columns["b"].tolist() == [4321 % 7]
        assert text == executed.qplan.pretty()
        assert "4321" in text and "$1" not in text
        assert "partitions[" in text


# --------------------------------------------------------- simple protocol


class TestSimpleProtocol:
    def test_roundtrip_matches_direct_execution(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        batch = conn.simple_query("SELECT sum(b) AS s FROM t")
        direct = execute_sql(c, "SELECT sum(b) AS s FROM t")
        assert batch.columns["s"].tolist() == direct.columns["s"].tolist()
        assert int(batch.columns["s"][0]) == SUM_B

    def test_wire_bytes_are_charged(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        conn.simple_query("SELECT a FROM t WHERE a < 10")
        stats = srv.stats()
        assert stats["bytes_received"] > 0
        assert stats["bytes_sent"] > 0

    def test_dml_and_unknown_tenant_autoregister(self):
        c, srv = _served_cluster()
        conn = srv.connect(tenant="etl")
        assert "etl" in c.workload.admission.tenants
        n = conn.simple_query("INSERT INTO t (a, b) VALUES (900001, 3)")
        assert n == 1

    def test_unbound_parameter_rejected(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        with pytest.raises(SqlError, match="parameter"):
            conn.simple_query("SELECT a FROM t WHERE a < $1")

    def test_closed_connection_rejects_queries(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        conn.close()
        with pytest.raises(SqlError, match="closed"):
            conn.simple_query("SELECT a FROM t WHERE a < 5")


# ------------------------------------------------------- extended protocol


class TestExtendedProtocol:
    def test_parse_bind_execute(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        conn.parse("q", "SELECT a, b FROM t WHERE a < $1 ORDER BY a")
        conn.bind("q", (3,))
        r = conn.execute()
        assert r.columns["a"].tolist() == [0, 1, 2]
        conn.bind("q", (5,))
        r = conn.execute()
        assert r.columns["a"].tolist() == [0, 1, 2, 3, 4]

    def test_bind_validates_parameter_count(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        conn.parse("q", "SELECT a FROM t WHERE a < $1")
        with pytest.raises(SqlError, match="parameter"):
            conn.bind("q", (1, 2))
        with pytest.raises(SqlError, match="prepared"):
            conn.bind("nope", (1,))
        with pytest.raises(SqlError, match="portal"):
            conn.execute("nope")

    def test_prepared_dml(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        conn.parse("ins", "INSERT INTO t (a, b) VALUES ($1, $2)")
        conn.bind("ins", (900100, 5))
        assert conn.execute() == 1
        r = conn.simple_query("SELECT b FROM t WHERE a = 900100")
        assert r.columns["b"].tolist() == [5]

    def test_one_fingerprint_across_bound_literals(self):
        # satellite: all executions of a prepared statement aggregate as
        # ONE fingerprint_stats entry, whatever literals were bound
        c, srv = _served_cluster()
        conn = srv.connect()
        prepared = conn.parse(
            "sweep", "SELECT sum(b) AS s FROM t WHERE a < $1")
        for cutoff in (10, 500, 4000):
            conn.bind("sweep", (cutoff,))
            conn.execute()
        c.workload.drain()
        stats = c.monitor.fingerprint_stats()
        assert stats[prepared.fingerprint]["count"] == 3
        fingerprints = [r.fingerprint
                        for r in c.workload.terminal_records()]
        assert fingerprints.count(prepared.fingerprint) == 3

    def test_same_fingerprint_different_literals_not_conflated(self):
        # simple-protocol statements share a fingerprint across literal
        # values; the result cache must still key them apart, or the
        # second query would be served the first one's rows
        c, srv = _served_cluster()
        conn = srv.connect()
        r3 = conn.simple_query("SELECT a FROM t WHERE a < 3 ORDER BY a")
        r5 = conn.simple_query("SELECT a FROM t WHERE a < 5 ORDER BY a")
        assert r3.columns["a"].tolist() == [0, 1, 2]
        assert r5.columns["a"].tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("texts, params", [
        (("SELECT sum(b) AS s FROM t WHERE a < 1000",
          "SELECT sum(b) AS s FROM t WHERE a < 2000"), ()),
        (("SELECT sum(b) AS s FROM t WHERE a < $1 AND b = 5",
          "SELECT sum(b) AS s FROM t WHERE a < $1 AND b = 6"), (3000,)),
    ])
    def test_prepared_statements_sharing_a_fingerprint_not_conflated(
            self, texts, params):
        # two texts with one fingerprint bound to the same values are
        # still two results: the cache key is the text, not the
        # fingerprint
        c, srv = _served_cluster()
        conn = srv.connect()
        for name, sql in zip(("lo", "hi"), texts):
            conn.parse(name, sql)
        assert len({conn.prepared[n].fingerprint for n in ("lo", "hi")}) == 1
        for name, sql in zip(("lo", "hi"), texts):
            conn.bind(name, params)
            spelled = sql.replace("$1", str(params[0])) if params else sql
            assert conn.execute().columns["s"].tolist() == \
                execute_sql(c, spelled).columns["s"].tolist()


# ------------------------------------------------------------ result cache


class TestResultCache:
    def test_hit_is_bit_identical_and_skips_admission(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        sql = "SELECT a, b FROM t WHERE a < 50 ORDER BY a"
        cold = conn.simple_query(sql)
        tenant = c.workload.admission.tenants[DEFAULT_TENANT]
        admitted_before = tenant.admitted
        hit = conn.simple_query(sql)
        assert tenant.admitted == admitted_before
        assert srv.result_cache.hits == 1
        for col in cold.columns:
            assert hit.columns[col].dtype == cold.columns[col].dtype
            assert hit.columns[col].tolist() == cold.columns[col].tolist()

    def test_generated_column_names_repeat_on_a_hit_and_a_cold_run(self):
        c, srv = _served_cluster()
        sql = "SELECT sum(b), count(*) FROM t"
        first = list(execute_sql(c, sql).columns)
        assert list(execute_sql(c, sql).columns) == first
        conn = srv.connect()
        cold = conn.simple_query(sql)
        hit = conn.simple_query(sql)
        assert srv.result_cache.hits == 1
        srv.result_cache.clear()
        again = conn.simple_query(sql)
        assert list(cold.columns) == list(hit.columns) \
            == list(again.columns) == first

    def test_served_batch_is_a_private_copy(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        sql = "SELECT a FROM t WHERE a < 5 ORDER BY a"
        first = conn.simple_query(sql)
        first.columns["a"][:] = -1  # client scribbles on its result
        again = conn.simple_query(sql)
        assert again.columns["a"].tolist() == [0, 1, 2, 3, 4]

    def test_commit_bumps_epoch_and_evicts(self):
        c, srv = _served_cluster()
        conn = srv.connect()
        sql = "SELECT sum(b) AS s FROM t"
        before = conn.simple_query(sql)
        assert len(srv.result_cache) == 1
        epoch0 = c.txn.table_epoch("t")
        conn.simple_query("INSERT INTO t (a, b) VALUES (900000, 1)")
        assert c.txn.table_epoch("t") == epoch0 + 1
        assert len(srv.result_cache) == 0  # eager eviction on the bump
        after = conn.simple_query(sql)
        assert int(after.columns["s"][0]) == int(before.columns["s"][0]) + 1

    def test_no_stale_insert_under_concurrent_commit(self):
        # satellite: a SELECT in flight while a writer commits must not
        # poison the cache -- its epochs are stale by gather time, so
        # the next request misses and recomputes against the new epoch
        c, srv = _served_cluster()
        reader = srv.connect(tenant="reader")
        writer = srv.connect(tenant="writer")
        sql = "SELECT sum(b) AS s FROM t"
        pending = reader.query_async(sql)
        writer.simple_query("INSERT INTO t (a, b) VALUES (900000, 1)")
        pending.result()
        misses_before = srv.result_cache.misses
        fresh = reader.simple_query(sql)
        assert srv.result_cache.misses == misses_before + 1
        assert int(fresh.columns["s"][0]) == SUM_B + 1
        # and the recomputed result is cached for the *new* epoch
        assert reader.simple_query(sql).columns["s"].tolist() == \
            fresh.columns["s"].tolist()
        assert srv.result_cache.hits >= 1

    def test_lru_capacity_and_direct_cache_api(self):
        cache = EpochKeyedCache(2)
        from repro.engine.batch import Batch
        mk = lambda v: Batch({"x": np.array([v])}, 1)  # noqa: E731
        cache.store("q1", (("t", 0),), mk(1), ["t"])
        cache.store("q2", (("t", 0),), mk(2), ["t"])
        cache.store("q3", (("t", 0),), mk(3), ["t"])
        assert cache.evictions == 1
        assert cache.lookup("q1", (("t", 0),)) is None  # LRU victim
        assert cache.lookup("q3", (("t", 0),)).columns["x"].tolist() == [3]
        assert cache.lookup("q3", (("t", 1),)) is None  # wrong epoch
        assert cache.invalidate_table("t") == 2
        assert len(cache) == 0

    def test_portal_key_distinguishes_params(self):
        assert result_key("abc", (1,)) != result_key("abc", (2,))
        assert result_key("abc", ("1",)) != result_key("abc", (1,))
        assert result_key("abc", ()) != result_key("abd", ())

    def test_system_table_reads_bypass_the_cache(self):
        # no commit moves a vh$ table's epoch, so a cached read of one
        # would be served stale forever
        c, srv = _served_cluster()
        conn = srv.connect()
        sql = "SELECT count(*) AS n FROM vh$queries"
        assert conn.simple_query(sql).columns["n"].tolist() == [1]
        for cutoff in (1, 2, 3):
            conn.simple_query(f"SELECT a FROM t WHERE a < {cutoff}")
        assert conn.simple_query(sql).columns["n"].tolist() == [5]
        conn.parse("q", sql)
        conn.bind("q", ())
        assert conn.execute().columns["n"].tolist() == [6]
        assert srv.result_cache.hits == 0
        assert len(srv.result_cache) == 3


# -------------------------------------------------------------- WFQ tenants


class TestWeightedFairness:
    def _saturated_run(self):
        c, srv = _served_cluster(workload_max_concurrent=1,
                                 server_result_cache_entries=0)
        srv.add_tenant("gold", weight=2)
        srv.add_tenant("silver", weight=1)
        gold, silver = srv.connect("gold"), srv.connect("silver")
        for i in range(12):
            gold.query_async(f"SELECT sum(b) AS s FROM t WHERE a < {i + 2}")
            silver.query_async(
                f"SELECT sum(b) AS s FROM t WHERE a > {i + 2}")
        srv.drain()
        order = [(e.attrs["query"], e.attrs["tenant"])
                 for e in c.events if e.kind == "query.admitted"]
        return c, order

    def test_two_to_one_weights_admit_two_to_one(self):
        c, order = self._saturated_run()
        assert len(order) == 24
        # the saturated window: all but the tail where one queue drained
        window = order[:18]
        gold = sum(1 for _, t in window if t == "gold")
        silver = len(window) - gold
        assert silver > 0
        ratio = gold / silver
        assert abs(ratio - 2.0) <= 2.0 * 0.15, (ratio, window)

    def test_twin_runs_identical_admission_order(self):
        _, a = self._saturated_run()
        _, b = self._saturated_run()
        assert a == b

    def test_fifo_within_tenant(self):
        c, order = self._saturated_run()
        for name in ("gold", "silver"):
            qids = [q for q, t in order if t == name]
            assert qids == sorted(qids)

    def test_stride_accounting(self):
        c, order = self._saturated_run()
        gold = c.workload.admission.tenants["gold"]
        silver = c.workload.admission.tenants["silver"]
        assert gold.stride() == STRIDE1 // 2
        assert silver.stride() == STRIDE1
        assert gold.admitted == 12 and gold.finished == 12
        assert silver.admitted == 12 and silver.finished == 12

    def test_priority_preempts_weight(self):
        c, srv = _served_cluster(workload_max_concurrent=1,
                                 server_result_cache_entries=0)
        srv.add_tenant("batch", weight=8)
        srv.add_tenant("urgent", weight=1, priority=-1)
        batch, urgent = srv.connect("batch"), srv.connect("urgent")
        for i in range(4):
            batch.query_async(f"SELECT sum(b) AS s FROM t WHERE a < {i + 2}")
            urgent.query_async(
                f"SELECT sum(b) AS s FROM t WHERE a > {i + 2}")
        srv.drain()
        order = [e.attrs["tenant"] for e in c.events
                 if e.kind == "query.admitted"]
        # after the first (forced) admission, urgent's strictly lower
        # priority band wins every contested slot until it drains
        assert order[1:5] == ["urgent"] * 4

    def test_tenant_quota_limits_concurrency(self):
        c, srv = _served_cluster(workload_max_concurrent=4,
                                 server_result_cache_entries=0)
        srv.add_tenant("capped", weight=1, max_concurrent=1)
        conn = srv.connect("capped")
        for i in range(3):
            conn.query_async(f"SELECT sum(b) AS s FROM t WHERE a < {i + 2}")
        capped = c.workload.admission.tenants["capped"]
        assert capped.running == 1
        assert len(capped.queue) == 2
        sat = c.registry.get("tenant_quota_saturation")
        assert sat.get(tenant="capped") == 2.0
        srv.drain()
        assert capped.finished == 3
        assert sat.get(tenant="capped") == 0.0


# ----------------------------------------------------------- system tables


class TestSystemTables:
    def test_vh_tenants_rows(self):
        c, srv = _served_cluster()
        srv.add_tenant("gold", weight=2, max_concurrent=3)
        srv.connect("gold").simple_query("SELECT sum(b) AS s FROM t")
        rows = execute_sql(
            c, "SELECT tenant, weight, quota, admitted, finished "
               "FROM vh$tenants")
        by_name = {t: (w, q, a, f) for t, w, q, a, f in zip(
            rows.columns["tenant"], rows.columns["weight"],
            rows.columns["quota"], rows.columns["admitted"],
            rows.columns["finished"])}
        assert by_name["gold"] == (2, 3, 1, 1)
        assert DEFAULT_TENANT in by_name

    def test_vh_connections_rows(self):
        c, srv = _served_cluster()
        conn = srv.connect("gold")
        conn.parse("q", "SELECT a FROM t WHERE a < $1")
        conn.bind("q", (3,))
        conn.execute()
        other = srv.connect("silver")
        other.close()
        rows = execute_sql(
            c, "SELECT conn, tenant, state, queries, prepared "
               "FROM vh$connections")
        by_id = {int(i): (t, s, int(q), int(p)) for i, t, s, q, p in zip(
            rows.columns["conn"], rows.columns["tenant"],
            rows.columns["state"], rows.columns["queries"],
            rows.columns["prepared"])}
        assert by_id[conn.conn_id] == ("gold", "open", 1, 1)
        assert by_id[other.conn_id][1] == "closed"

    def test_query_log_carries_tenant(self):
        c, srv = _served_cluster()
        srv.connect("gold").simple_query("SELECT sum(b) AS s FROM t")
        c.workload.drain()
        rows = execute_sql(c, "SELECT tenant, state FROM vh$queries")
        assert "gold" in set(rows.columns["tenant"])
        report = c.monitor.slow_report()
        assert "tenant" in report.splitlines()[0]
        assert "gold" in report

    def test_twin_runs_identical_tenant_tables(self):
        def run():
            c, srv = _served_cluster(workload_max_concurrent=2,
                                     server_result_cache_entries=0)
            srv.add_tenant("gold", weight=2)
            srv.add_tenant("silver", weight=1)
            g, s = srv.connect("gold"), srv.connect("silver")
            for i in range(6):
                g.query_async(
                    f"SELECT sum(b) AS s FROM t WHERE a < {i + 2}")
                s.query_async(
                    f"SELECT sum(b) AS s FROM t WHERE a > {i + 2}")
            srv.drain()
            return execute_sql(
                c, "SELECT tenant, weight, queued, running, admitted, "
                   "finished, wfq_pass FROM vh$tenants")
        a, b = run(), run()
        for col in a.columns:
            assert a.columns[col].tolist() == b.columns[col].tolist()


# ------------------------------------------------------------ connections


class TestConnectionLifecycle:
    def test_close_cancels_inflight(self):
        c, srv = _served_cluster(workload_max_concurrent=1,
                                 server_result_cache_entries=0)
        conn = srv.connect("gold")
        conn.query_async("SELECT sum(b) AS s FROM t WHERE a < 10")
        conn.query_async("SELECT sum(b) AS s FROM t WHERE a < 20")
        cancelled = conn.close()
        assert cancelled == 2
        assert conn.state == "closed"
        srv.drain()
        kinds = [e.kind for e in c.events if e.source == "workload"]
        assert kinds.count("query.cancelled") == 2

    def test_chaos_drop_and_storm_faults(self):
        c, srv = _served_cluster(workload_max_concurrent=2,
                                 server_result_cache_entries=0)
        srv.storm_statement = "SELECT sum(b) AS s FROM t WHERE a < 64"
        conn = srv.connect("gold")
        plan = FaultPlan([FaultSpec(0.0, "conn.drop"),
                          FaultSpec(0.0, "tenant.storm", count=3)])
        chaos = ChaosController(c, seed=11, plan=plan).install()
        driver = srv.connect("gold")
        for i in range(4):
            driver.query_async(
                f"SELECT sum(b) AS s FROM t WHERE a < {i + 2}")
        srv.drain()
        chaos.uninstall()
        details = {f.spec.kind: f.detail for f in chaos.fired}
        assert details["conn.drop"].startswith("dropped conn 1")
        assert details["tenant.storm"].startswith("storm: 3 queries")
        assert conn.state == "closed"
        assert all(f.invariant_ok for f in chaos.fired)
        assert c.workload.admission.tenants["gold"].finished >= 7

    def test_storm_without_frontend_is_skipped(self):
        config = Config().scaled_for_tests()
        config.workload_deterministic = True
        c = VectorHCluster(n_nodes=4, config=config)
        plan = FaultPlan([FaultSpec(0.0, "tenant.storm", count=2)])
        chaos = ChaosController(c, seed=3, plan=plan).install()
        chaos.tick()
        chaos.uninstall()
        assert chaos.fired[0].detail.startswith("skipped")

    def test_serving_kinds_generate(self):
        plan = FaultPlan.generate(7, ["w0", "w1"], n_faults=6,
                                  kinds=SERVING_KINDS)
        kinds = {spec.kind for spec in plan}
        assert kinds <= {"conn.drop", "tenant.storm"}


# ------------------------------------------------------------- idempotence


class TestServeLifecycle:
    def test_serve_is_idempotent(self):
        c, srv = _served_cluster()
        assert c.serve() is srv
        assert isinstance(srv, ServerFrontend)
        assert c.frontend is srv
