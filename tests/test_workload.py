"""Tests for the workload manager: concurrent, admission-controlled queries.

Covers the multi-query control loop end to end: interleaved execution on
the shared clock, snapshot stability for readers suspended across a
committing UPDATE, write-write 2PC aborts with both transactions
mid-flight, FIFO admission under memory pressure, cancellation and
timeouts, makespan/determinism acceptance, the vh$queries view (per
session by GROUP BY), and the dbAgent's workload-driven automatic
footprint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.invariants import admission_gauge_drift
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import (
    ExecutionError,
    QueryCancelled,
    QueryTimeout,
    TransactionAborted,
)
from repro.common.types import INT64
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LScan, LSelect, LSort
from repro.sql import execute_sql
from repro.storage import Column, TableSchema
from repro.tpch import tpch_schemas
from repro.tpch.queries import q1, q3, q6, q14
from repro.tpch.schema import LOAD_ORDER
from repro.workload import estimate_query_memory
from tests.conftest import assert_batches_match

N_ROWS = 16000
SUM_B = int((np.arange(N_ROWS) % 7).sum())


def _small_cluster(n_nodes: int = 4, **overrides) -> VectorHCluster:
    config = Config().scaled_for_tests()
    for key, value in overrides.items():
        setattr(config, key, value)
    c = VectorHCluster(n_nodes=n_nodes, config=config)
    c.create_table(TableSchema(
        "t", [Column("a", INT64), Column("b", INT64)],
        partition_key=("a",), n_partitions=4, clustered_on=("a",)))
    a = np.arange(N_ROWS)
    c.bulk_load("t", {"a": a, "b": a % 7})
    return c


def _sum_plan():
    return LAggr(LScan("t", ["b"]), [], [("s", "sum", Col("b"))])


def _count_plan():
    return LAggr(LScan("t", ["a"]), [], [("n", "count", None)])


def _filtered_sum_plan(cutoff: int):
    return LAggr(LSelect(LScan("t", ["a", "b"]), Col("a") < cutoff),
                 [], [("s", "sum", Col("b"))])


def _sort_plan():
    # a sort root streams one batch per round: stays mid-flight for many
    # global rounds, which cancel tests rely on
    return LSort(LScan("t", ["a", "b"]), ["a"])


# --------------------------------------------------------------- interleaving


class TestInterleaving:
    def test_concurrent_queries_return_correct_results(self):
        c = _small_cluster()
        q_sum = c.submit(_sum_plan())
        q_cnt = c.submit(_count_plan())
        q_flt = c.submit(_filtered_sum_plan(700))
        # gather out of submission order: rounds interleave regardless
        assert c.gather(q_flt).batch.columns["s"][0] == \
            int((np.arange(700) % 7).sum())
        assert c.gather(q_sum).batch.columns["s"][0] == SUM_B
        assert c.gather(q_cnt).batch.columns["n"][0] == N_ROWS
        records = {r.query_id: r for r in c.workload.query_records()}
        assert all(records[q].state == "finished"
                   for q in (q_sum, q_cnt, q_flt))
        # all three genuinely overlapped: each took many rounds and the
        # makespan covered all of them on the one shared clock
        assert min(records[q].rounds for q in (q_sum, q_cnt, q_flt)) > 1

    def test_queries_interleave_on_shared_clock(self):
        c = _small_cluster(workload_deterministic=True)
        qa = c.submit(_sum_plan())
        qb = c.submit(_count_plan())
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[qa].state == "running"
        assert records[qb].state == "running"
        # one global round advances *both* suspended queries by one turn
        c.workload.step()
        assert records[qa].rounds == records[qb].rounds == 1
        c.workload.drain()
        assert records[qa].state == records[qb].state == "finished"

    def test_query_shim_is_submit_plus_gather(self):
        c = _small_cluster()
        res = c.query(_sum_plan())
        assert res.batch.columns["s"][0] == SUM_B
        assert res.query_id is not None
        assert res.rounds > 0
        [record] = c.workload.query_records()
        assert record.state == "finished"

    def test_session_handles(self):
        """A query's session is the connection that sent it; a library
        call's is 0."""
        c = _small_cluster()
        srv = c.serve()
        c1, c2 = srv.connect(), srv.connect()
        assert c1.conn_id != c2.conn_id
        h1 = c1.query_async("SELECT sum(b) AS s FROM t")
        h2 = c2.query_async("SELECT count(*) AS n FROM t")
        library = c.submit(_sum_plan())
        assert h1.result().columns["s"][0] == SUM_B
        assert h2.result().columns["n"][0] == N_ROWS
        assert c.gather(library).batch.columns["s"][0] == SUM_B
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[h1.query_id].session_id == c1.conn_id
        assert records[h2.query_id].session_id == c2.conn_id
        assert records[library].session_id == 0


# ------------------------------------------------------------------ snapshots


class TestSnapshots:
    def test_suspended_reader_keeps_snapshot_across_commit(self):
        """A reader admitted before an UPDATE commits must not see it."""
        c = _small_cluster()
        qid = c.submit(_sum_plan())
        for _ in range(3):  # the reader is now mid-flight
            c.workload.step()
        hit = c.update_where("t", Col("a") >= 0, {"b": Col("b") + 100})
        assert hit == N_ROWS
        # the suspended reader drains against its admission-time snapshot
        assert c.gather(qid).batch.columns["s"][0] == SUM_B
        # a query admitted after the commit sees the new values
        res = c.query(_sum_plan())
        assert res.batch.columns["s"][0] == SUM_B + 100 * N_ROWS

    def test_reader_sees_own_transaction_while_interleaved(self):
        c = _small_cluster()
        t = c.begin()
        c.update_where("t", Col("a") == 5, {"b": Col("b") + 1}, trans=t)
        q_own = c.submit(_sum_plan(), trans=t)
        q_other = c.submit(_sum_plan())
        assert c.gather(q_own).batch.columns["s"][0] == SUM_B + 1
        assert c.gather(q_other).batch.columns["s"][0] == SUM_B
        t.abort()

    def test_write_write_conflict_aborts_with_both_mid_flight(self):
        """2PC write-write abort with both txns live in the scheduler."""
        c = _small_cluster()
        t1, t2 = c.begin(), c.begin()
        c.update_where("t", Col("a") == 5, {"b": Col("b") + 1}, trans=t1)
        c.update_where("t", Col("a") == 5, {"b": Col("b") + 2}, trans=t2)
        # both transactions read concurrently, interleaved mid-commit
        r1 = c.submit(_sum_plan(), trans=t1)
        r2 = c.submit(_sum_plan(), trans=t2)
        for _ in range(2):
            c.workload.step()
        assert c.gather(r1).batch.columns["s"][0] == SUM_B + 1
        assert c.gather(r2).batch.columns["s"][0] == SUM_B + 2
        t1.commit()
        with pytest.raises(TransactionAborted):
            t2.commit()
        assert c.query(_sum_plan()).batch.columns["s"][0] == SUM_B + 1


# ------------------------------------------------------------------ admission


class TestAdmission:
    def test_core_slots_limit_concurrency(self):
        c = _small_cluster(workload_max_concurrent=1)
        qa = c.submit(_sum_plan())
        qb = c.submit(_count_plan())
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[qa].state == "running"
        assert records[qb].state == "queued"
        assert "core slots" in records[qb].queue_reason
        assert c.gather(qb).batch.columns["n"][0] == N_ROWS
        assert records[qa].state == "finished"  # finished along the way

    def test_fifo_admission_under_memory_pressure(self):
        c = _small_cluster()
        budget = 1 << 20
        wm = c.workload
        # the admission policy reads its limits from the config
        c.config.workload_memory_budget_mb = 1
        c.config.workload_max_concurrent = 8
        tiny = {n: 1024 for n in c.workers}
        huge = {n: budget * 2 for n in c.workers}  # only fits alone
        qa = wm.submit(_sum_plan(), memory_estimate=dict(tiny))
        qb = wm.submit(_sum_plan(), memory_estimate=dict(huge))
        qc = wm.submit(_sum_plan(), memory_estimate=dict(tiny))
        records = {r.query_id: r for r in wm.query_records()}
        assert records[qa].state == "running"
        assert records[qb].state == "queued"
        assert "memory budget" in records[qb].queue_reason
        # qc would fit right now, but FIFO admission does not bypass qb
        assert records[qc].state == "queued"
        wm.drain()
        assert all(records[q].state == "finished" for q in (qa, qb, qc))
        admitted = [e.attrs["query"]
                    for e in c.events.of_kind("query.admitted")]
        assert admitted == [qa, qb, qc]
        # qb only ran once it had the cluster to itself (force-admitted)
        forced = {e.attrs["query"]: e.attrs["forced"]
                  for e in c.events.of_kind("query.admitted")}
        assert forced[qb] and not forced[qa] and not forced[qc]
        assert records[qb].wait_sim > 0.0

    def test_peak_memory_stays_under_budget(self):
        from repro.mpp.rewriter import ParallelRewriter
        c = _small_cluster()
        estimates = estimate_query_memory(
            c, ParallelRewriter(c).plan(_sum_plan()))
        budget = 2 * max(estimates.values())
        wm = c.workload
        c.config.workload_memory_budget_mb = budget / (1 << 20)
        c.config.workload_max_concurrent = 8
        qids = [wm.submit(_sum_plan()) for _ in range(4)]
        wm.drain()
        records = {r.query_id: r for r in wm.query_records()}
        assert all(records[q].state == "finished" for q in qids)
        for node, peak in wm.meter.peak_by_node().items():
            assert peak <= budget, (node, peak, budget)
        # everything was released: the shared meter reads empty
        assert all(v == 0 for v in wm.meter.current.values())

    def test_plan_estimates_are_positive(self):
        c = _small_cluster()
        from repro.mpp.rewriter import ParallelRewriter
        estimates = estimate_query_memory(
            c, ParallelRewriter(c).plan(_sum_plan()))
        assert set(c.workers) <= set(estimates)
        assert all(v > 0 for v in estimates.values())

    def test_wait_metrics_exposed(self):
        c = _small_cluster(workload_max_concurrent=1)
        qa = c.submit(_sum_plan())
        qb = c.submit(_sum_plan())
        snap = c.metrics().snapshot()
        assert snap["admission_queue_depth"][()] == 1
        assert snap["queries_running"][()] == 1
        c.gather(qa)
        c.gather(qb)
        snap = c.metrics().snapshot()
        assert snap["admission_queue_depth"][()] == 0
        assert snap["queries_running"][()] == 0
        assert "query_wait_seconds" in c.metrics().render()


# ----------------------------------------------------------- admission gauges


def _gauges(c) -> dict:
    """What the registry says about queues and running queries."""
    reg = c.registry
    out = {"admission_queue_depth": reg.value("admission_queue_depth"),
           "queries_running": reg.value("queries_running")}
    for name, tenant in c.workload.admission.tenants.items():
        out[name] = (reg.value("tenant_queue_depth", tenant=name),
                     reg.value("tenant_running", tenant=name))
        if tenant.max_concurrent:
            out[name + "/saturation"] = reg.value(
                "tenant_quota_saturation", tenant=name)
    return out


def _live_state(c) -> dict:
    """The same numbers counted from the manager's query records."""
    live = [r for r in c.workload.query_records()
            if r.state in ("queued", "running")]

    def count(state, tenant=None):
        return sum(r.state == state and tenant in (None, r.tenant)
                   for r in live)

    out = {"admission_queue_depth": count("queued"),
           "queries_running": count("running")}
    for name, tenant in c.workload.admission.tenants.items():
        out[name] = (count("queued", name), count("running", name))
        if tenant.max_concurrent:
            out[name + "/saturation"] = (count("queued", name)
                                         / tenant.max_concurrent)
    return out


class TestAdmissionGauges:
    def test_gauges_equal_live_state_after_every_transition(
            self, monkeypatch):
        c = _small_cluster(n_nodes=6, workload_max_concurrent=3,
                           workload_deterministic=True)
        srv = c.serve()
        srv.storm_statement = "SELECT sum(b) AS s FROM t WHERE a < 64"
        seen = []

        def check(step):
            assert _gauges(c) == _live_state(c), step
            assert admission_gauge_drift(c) == [], step
            seen.append(step)

        # registering a tenant publishes its zero series
        srv.add_tenant("capped", max_concurrent=1)
        assert c.registry.get("tenant_running").snapshot()[("capped",)] == 0
        assert c.registry.get(
            "tenant_quota_saturation").snapshot()[("capped",)] == 0.0
        check("register")

        sort_sql = "SELECT a, b FROM t ORDER BY a"
        victim = c.submit(_sort_plan())
        check("submit")
        capped = srv.connect("capped")
        first = capped.query_async(sort_sql).query_id
        blocked = capped.query_async(sort_sql).query_id
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[first].state == "running"
        assert "quota" in records[blocked].queue_reason
        check("quota-blocked tenant")
        assert c.workload.cancel(blocked)
        check("cancel queued")
        c.workload.step()
        assert c.workload.cancel(victim)
        check("cancel running")
        timed_out = c.submit(_sort_plan(), timeout=1e-7)
        c.workload.step()
        with pytest.raises(QueryTimeout):
            c.gather(timed_out)
        check("timeout")

        # a node loss unwinds the running queries: the own-snapshot one
        # is requeued, the caller-snapshot one fails
        retried = c.submit(_sort_plan())
        failed = c.submit(_sort_plan(), trans=c.begin())
        c.workload.step()
        redispatch = c.workload.redispatch

        def checked_redispatch():
            check("failover requeue")
            redispatch()

        monkeypatch.setattr(c.workload, "redispatch", checked_redispatch)
        c.fail_node(c.session_master)
        check("failover redispatch")
        with pytest.raises(ExecutionError, match="caller-owned"):
            c.gather(failed)
        check("failure")

        assert srv.chaos_storm(tenant="capped", count=3).startswith("storm")
        assert c.registry.value(
            "tenant_quota_saturation", tenant="capped") >= 3.0
        check("tenant.storm")
        c.workload.drain()
        check("drained")
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[retried].retries == 1
        assert records[retried].state == "finished"
        assert _gauges(c)["admission_queue_depth"] == 0
        assert "failover requeue" in seen


# --------------------------------------------------------- cancel and timeout


class TestCancelTimeout:
    def test_cancel_queued_query(self):
        c = _small_cluster(workload_max_concurrent=1)
        qa = c.submit(_sum_plan())
        qb = c.submit(_sum_plan())
        assert c.workload.cancel(qb)
        with pytest.raises(QueryCancelled):
            c.gather(qb)
        assert c.gather(qa).batch.columns["s"][0] == SUM_B

    def test_cancel_running_query_unwinds_cleanly(self):
        c = _small_cluster()
        victim = c.submit(_sort_plan())
        other = c.submit(_count_plan())
        for _ in range(3):  # the victim is mid-flight, buffers held
            c.workload.step()
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[victim].state == "running"
        net_before = c.mpi.total_bytes
        assert c.workload.cancel(victim)
        # cancellation flushes nothing to the fabric
        assert c.mpi.total_bytes == net_before
        with pytest.raises(QueryCancelled) as exc:
            c.gather(victim)
        assert exc.value.query_id == victim
        kinds = [e.attrs.get("query")
                 for e in c.events.of_kind("query.cancelled")]
        assert victim in kinds
        # the survivor is unaffected and the shared meter drains to zero
        assert c.gather(other).batch.columns["n"][0] == N_ROWS
        assert all(v == 0 for v in c.workload.meter.current.values())
        # cancelling a terminal query is a no-op
        assert not c.workload.cancel(victim)
        assert not c.workload.cancel(other)

    def test_session_cancel(self):
        c = _small_cluster()
        qid = c.submit(_sum_plan())
        assert c.workload.cancel(qid)
        with pytest.raises(QueryCancelled):
            c.gather(qid)

    def test_session_cancel_of_queued_query_leaves_admission_untouched(self):
        c = _small_cluster(workload_max_concurrent=1)
        running = c.submit(_sort_plan())
        queued = c.submit(_sum_plan())
        c.workload.step()
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[queued].state == "queued"
        meter_before = dict(c.workload.meter.current)
        assert c.workload.cancel(queued)
        # the queued query never charged the meter, so nothing changed
        assert dict(c.workload.meter.current) == meter_before
        assert records[queued].state == "cancelled"
        cancelled = [e.attrs.get("query")
                     for e in c.events.of_kind("query.cancelled")]
        assert queued in cancelled
        with pytest.raises(QueryCancelled):
            c.gather(queued)
        # the running query is unaffected and the meter drains to zero
        c.gather(running)
        assert all(v == 0 for v in c.workload.meter.current.values())

    def test_timeout_cancels_with_query_timeout(self):
        c = _small_cluster(workload_deterministic=True)
        qid = c.submit(_sum_plan(), timeout=0.0)
        with pytest.raises(QueryTimeout):
            c.gather(qid)
        [record] = c.workload.query_records()
        assert record.state == "cancelled"
        assert record.cancel_reason == "timeout"
        reasons = [e.attrs.get("reason")
                   for e in c.events.of_kind("query.cancelled")]
        assert "timeout" in reasons

    def test_generous_timeout_does_not_fire(self):
        c = _small_cluster(workload_deterministic=True)
        res = c.query(_sum_plan(), timeout=1e9)
        assert res.batch.columns["s"][0] == SUM_B


class TestTerminalRecords:
    def test_terminal_records_let_go_of_their_runs(self):
        c = _small_cluster(workload_deterministic=True)
        results = [c.query(_filtered_sum_plan(100 * (i + 1)))
                   for i in range(50)]
        victim = c.submit(_sort_plan())
        timed_out = c.submit(_sort_plan(), timeout=1e-7)
        # three rounds in, the victim is mid-flight with buffers held;
        # the other one ran out of its budget on the way
        for _ in range(3):
            c.workload.step()
        assert c.workload.cancel(victim)
        with pytest.raises(QueryTimeout):
            c.gather(timed_out)
        records = c.workload.query_records()
        assert len(records) == 52
        assert {r.state for r in records} == {"finished", "cancelled"}
        # no terminal record pins an operator tree, yet the rounds its
        # run took are still what vh$queries reports
        assert all(r.run is None for r in records)
        logged = c.query(LScan("vh$queries", ["query", "rounds"])).batch
        rounds = dict(zip(logged.columns["query"].tolist(),
                          logged.columns["rounds"].tolist()))
        for result in results:
            assert rounds[result.query_id] == result.rounds > 0
        assert rounds[victim] == 3
        # the unwound queries gave everything back
        assert all(v == 0 for v in c.workload.meter.current.values())
        assert c.workload.load() == {"queued": 0, "running": 0,
                                     "running_streams": 0}


# ------------------------------------------------- makespan and determinism


@pytest.fixture(scope="module")
def tpch_plans(tpch_cluster):
    """Logical plans of four single-statement TPC-H queries, captured by
    running them once on the shared read-only TPC-H cluster."""
    plans = []

    def run(plan):
        plans.append(plan)
        return tpch_cluster.query(plan).batch

    for q in (q1, q3, q6, q14):
        q(run)
    return plans


def _deterministic_tpch_cluster(tpch_data) -> VectorHCluster:
    config = Config().scaled_for_tests()
    config.workload_deterministic = True
    config.workload_max_concurrent = 4
    cluster = VectorHCluster(n_nodes=4, config=config)
    schemas = tpch_schemas(n_partitions=6)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


class TestMakespan:
    def test_interleaved_makespan_beats_serial(self, tpch_plans, tpch_data):
        cluster = _deterministic_tpch_cluster(tpch_data)
        serial = [cluster.query(plan) for plan in tpch_plans]
        serial_total = sum(r.simulated_parallel_seconds for r in serial)
        clock0 = cluster.sim_clock.seconds
        qids = [cluster.submit(plan) for plan in tpch_plans]
        results = [cluster.gather(qid) for qid in qids]
        makespan = cluster.sim_clock.seconds - clock0
        # the acceptance criterion: running the four queries interleaved
        # is strictly cheaper than the sum of their serial runtimes
        assert makespan < serial_total
        for interleaved, alone in zip(results, serial):
            assert_batches_match(interleaved.batch, alone.batch)

    def test_two_runs_are_identical(self, tpch_plans, tpch_data):
        def one_run():
            cluster = _deterministic_tpch_cluster(tpch_data)
            clock0 = cluster.sim_clock.seconds
            qids = [cluster.submit(plan) for plan in tpch_plans]
            for qid in qids:
                cluster.gather(qid)
            records = {r.query_id: r
                       for r in cluster.workload.query_records()}
            return (round(cluster.sim_clock.seconds - clock0, 12),
                    [records[qid].rounds for qid in qids])

        first, second = one_run(), one_run()
        assert first == second


# -------------------------------------------------------------- introspection


class TestIntrospection:
    def test_vh_queries_states_and_reset_survival(self):
        c = _small_cluster(workload_max_concurrent=4)
        done = c.submit(_sum_plan())
        victim = c.submit(_sum_plan())
        c.workload.cancel(victim)
        c.gather(done)
        res = c.query(LScan("vh$queries", ["query", "state", "rounds"]))
        states = {int(q): s for q, s in zip(res.batch.columns["query"],
                                            res.batch.columns["state"])}
        rounds = {int(q): int(r) for q, r in zip(res.batch.columns["query"],
                                                 res.batch.columns["rounds"])}
        assert states[done] == "finished"
        assert states[victim] == "cancelled"
        assert rounds[done] > 0
        # the introspection query itself shows up live, as running
        assert "running" in states.values()
        # vh$queries is sourced from the workload manager, so a metrics
        # reset must not wipe query history
        c.metrics().reset()
        res2 = c.query(LScan("vh$queries", ["query", "state"]))
        assert res2.batch.n >= res.batch.n

    def test_per_session_counts(self):
        """Per-session counts are a GROUP BY over vh$queries."""
        c = _small_cluster()
        conn = c.serve().connect()
        conn.simple_query("SELECT sum(b) AS s FROM t")
        victim = conn.query_async("SELECT count(*) AS n FROM t")
        c.workload.cancel(victim.query_id)
        c.query(_sum_plan())
        res = execute_sql(c, "SELECT session, state, count(*) AS n "
                             "FROM vh$queries GROUP BY session, state")
        counts = {(int(s), st): int(n) for s, st, n in zip(
            *(res.columns[k].tolist() for k in ("session", "state", "n")))}
        # the GROUP BY itself runs as a library call, still live
        assert counts == {(conn.conn_id, "finished"): 1,
                          (conn.conn_id, "cancelled"): 1,
                          (0, "finished"): 1, (0, "running"): 1}


# ------------------------------------------------------- automatic footprint


class TestAutoFootprint:
    def test_probe_is_wired(self):
        c = _small_cluster()
        assert c.dbagent.workload_probe == c.workload.load
        load = c.dbagent.workload_probe()
        assert load == {"queued": 0, "running": 0, "running_streams": 0}

    def test_footprint_follows_live_load(self):
        c = _small_cluster()
        c.dbagent.auto_footprint()
        idle_slices = len(c.dbagent.slices)
        assert idle_slices == 1  # min_slices while idle
        qids = [c.submit(_sum_plan()) for _ in range(6)]
        load = c.workload.load()
        assert load["queued"] + load["running"] == 6
        assert load["running_streams"] == \
            load["running"] * len(c.workers)
        c.dbagent.auto_footprint()
        busy_slices = len(c.dbagent.slices)
        assert busy_slices > idle_slices
        for qid in qids:
            c.gather(qid)
        c.dbagent.auto_footprint()
        assert len(c.dbagent.slices) < busy_slices
