"""One ledger: what a statement leaves behind once it is terminal.

A query has exactly one record, the workload manager's ``QueryRecord``,
from submission to eviction. Reaching a terminal state folds its summary
scalars into the record and drops the plan, the snapshot transaction,
the operator tree and the span tree; the result (or the failure's
exception) is handed to the first ``gather``; terminal records live in
one bounded ring that ``vh$queries`` projects. These tests pin the
residue (zero growth per statement once the rings are full), the ring's
semantics, and that the table agrees with it.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest

from repro.cluster import VectorHCluster, vectorh
from repro.common.config import Config
from repro.common.errors import ExecutionError, QueryCancelled, QueryTimeout
from repro.common.types import INT64
from repro.engine.batch import Batch
from repro.engine.expressions import Col
from repro.engine.profile import KernelStat, ProfileNode
from repro.mpp.logical import LAggr, LScan, LSelect, LSort
from repro.mpp.plan import QueryPlan
from repro.obs import Event, Span
from repro.pdt.layer import PdtLayer
from repro.pdt.stack import TransPdt
from repro.sql import execute_sql
from repro.storage import Column, TableSchema
from repro.txn.manager import DistributedTransaction
from repro.workload import manager as workload_manager
from repro.workload.manager import QueryRecord

N_ROWS = 16000

#: what one finished statement pinned at the parent commit, per statement:
#: +1 / +1 / +1 / +8 / +8 / +13 / +5 / +9 / +2 / +3
CENSUS = (QueryRecord, QueryPlan, DistributedTransaction, TransPdt, PdtLayer,
          Span, ProfileNode, KernelStat, Batch, Event)

#: the references a terminal record must have let go of
HEAVY = ("run", "trans", "qplan", "trace_parent",
         "memory_estimate", "result", "error")


def _cluster(n_nodes: int = 4, **overrides) -> VectorHCluster:
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
    return c


def _sum_plan():
    return LAggr(LSelect(LScan("t", ["a", "b"]), Col("a") < N_ROWS),
                 [], [("s", "sum", Col("b"))])


def _sort_plan():
    # sorts stream one batch per round: stays in flight for many rounds
    return LSort(LSelect(LScan("t", ["a", "b"]), Col("a") < N_ROWS), ["a"])


def _census() -> dict:
    gc.collect()
    counts = Counter(type(o) for o in gc.get_objects())
    return {t.__name__: counts.get(t, 0) for t in CENSUS}


def _is_slim(record: QueryRecord) -> bool:
    return all(getattr(record, name) is None for name in HEAVY)


# ------------------------------------------------------------------ residue


def test_a_gathered_statement_leaves_one_bounded_row(monkeypatch):
    monkeypatch.setattr(workload_manager, "QUERY_RING_CAPACITY", 8)
    monkeypatch.setattr(vectorh, "EVENT_LOG_CAPACITY", 8)
    c = _cluster(server_result_cache_entries=0)
    conn = c.serve().connect()
    sql = "SELECT sum(b) AS s FROM t WHERE a < 100"
    for _ in range(100):
        conn.simple_query(sql)
    before = _census()
    for _ in range(200):
        assert conn.simple_query(sql).columns["s"][0] == sum(
            v % 7 for v in range(100))
    after = _census()
    assert after == before, {k: after[k] - before[k] for k in after
                             if after[k] != before[k]}
    records = c.workload.query_records()
    assert len(records) == 8  # nothing live: the ring, full
    assert all(r.state == "finished" and _is_slim(r) for r in records)
    assert c.registry.value("query_log_dropped_total") == 300 - 8
    assert len(c.events) == 8
    assert c.events.dropped == c.registry.value("events_dropped_total") > 0
    # the row that stays says what the statement did
    last = records[-1]
    assert (last.rows, last.statement, last.dominant_op != "") == (
        1, sql, True)
    assert last.fingerprint and last.plan_signature and last.sim_s > 0


# ----------------------------------------------------------- ring semantics


class TestRing:
    def test_the_result_is_handed_over_exactly_once(self):
        c = _cluster()
        qid = c.submit(_sum_plan())
        result = c.gather(qid)
        assert result.batch.n == 1 and result.query_id == qid
        with pytest.raises(ExecutionError, match="already gathered"):
            c.gather(qid)
        with pytest.raises(ExecutionError, match="unknown query id"):
            c.gather(qid + 1000)

    def test_gather_after_eviction_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(workload_manager, "QUERY_RING_CAPACITY", 2)
        c = _cluster()
        qids = [c.submit(_sum_plan()) for _ in range(4)]
        c.workload.drain()
        # oldest first: the first two fell off before anyone gathered them
        assert [r.query_id for r in c.workload.terminal_records()] \
            == qids[2:]
        assert c.registry.value("query_log_dropped_total") == 2
        with pytest.raises(ExecutionError, match="evicted"):
            c.gather(qids[0])
        assert c.gather(qids[3]).batch.n == 1
        assert not c.workload.is_live(qids[0])

    def test_every_terminal_path_ends_in_one_slim_row(self):
        c = _cluster(n_nodes=6, workload_max_concurrent=8)
        done = c.query(_sum_plan()).query_id
        cancelled = c.submit(_sort_plan())
        timed_out = c.submit(_sort_plan(), timeout=1e-7)
        retried = c.submit(_sort_plan())
        snapshot = c.begin()
        failed = c.submit(_sort_plan(), trans=snapshot)
        for _ in range(3):
            c.workload.step()
        assert c.workload.cancel(cancelled)
        c.fail_node(c.session_master)  # retried re-runs; failed cannot
        assert len(c.gather(retried).batch.columns["a"]) == N_ROWS
        with pytest.raises(QueryCancelled):
            c.gather(cancelled)
        with pytest.raises(QueryTimeout):
            c.gather(timed_out)
        with pytest.raises(ExecutionError, match="caller-owned snapshot"):
            c.gather(failed)
        with pytest.raises(ExecutionError, match="already gathered"):
            c.gather(failed)  # the exception was handed over; the row says
        # a caller-owned transaction is let go of, never finished
        assert not snapshot.finished

        records = {r.query_id: r for r in c.workload.query_records()}
        assert len(records) == 5 and all(map(_is_slim, records.values()))
        assert {q: records[q].state for q in records} == {
            done: "finished", cancelled: "cancelled",
            timed_out: "cancelled", retried: "finished", failed: "failed"}
        assert records[timed_out].cancel_reason == "timeout"
        assert records[retried].retries == 1
        assert records[failed].error_text.startswith("ExecutionError: worker")
        assert c.workload.load() == {"queued": 0, "running": 0,
                                     "running_streams": 0}

    def test_the_query_tables_project_one_ring(self):
        c = _cluster(workload_max_concurrent=2)
        srv = c.serve()
        c1, c2 = srv.connect(), srv.connect()
        c1.simple_query(f"SELECT sum(b) AS s FROM t WHERE a < {N_ROWS}")
        sort_sql = f"SELECT a, b FROM t WHERE a < {N_ROWS} ORDER BY a"
        victim = c2.query_async(sort_sql).query_id
        c.workload.step()
        c.workload.cancel(victim)
        execute_sql(c, "SELECT count(*) AS n FROM t WHERE a < 10")
        # still running while we look
        live = c2.query_async(sort_sql).query_id
        c.workload.step()

        def look(select, group_by=""):
            # each look is itself a logged query: keep the ones before it
            batch = execute_sql(c, f"SELECT {select} FROM vh$queries "
                                   f"WHERE query <= {live}{group_by}")
            return list(zip(*(col.tolist()
                              for col in batch.columns.values())))

        queries = look("query, session, state, retries, sim_ms, "
                       "fingerprint, rows, dominant, tenant")
        # the log is the terminal subset of vh$queries: the ring, with
        # the summary each record got at its terminal state
        log = [row for row in queries
               if row[2] not in ("queued", "running")]
        ring = [(r.query_id, r.session_id, r.state, r.retries,
                 r.sim_s * 1e3, r.fingerprint, r.rows, r.dominant_op,
                 r.tenant)
                for r in c.workload.terminal_records() if r.query_id <= live]
        assert log == sorted(ring) and len(log) == 3
        assert all(row[5] for row in log)
        assert all(row[7] for row in log if row[2] == "finished")
        # a live query has its row already, the summary still blank (a
        # server statement's fingerprint is known at submission)
        live_row = {row[0]: row for row in queries}[live]
        assert live_row[2:5] == ("running", 0, pytest.approx(0.0, abs=1e9))
        assert live_row[6:] == (0, "", "default")
        assert sum(row[2] == "running" for row in queries) == 1
        # per-session counts are a GROUP BY over the same records; a
        # query's session is its connection, a library call's 0
        per_session = Counter((row[1], row[2]) for row in queries)
        assert per_session == {
            (c1.conn_id, "finished"): 1, (c2.conn_id, "cancelled"): 1,
            (c2.conn_id, "running"): 1, (0, "finished"): 1}
        grouped = look("session, state, count(*) AS n",
                       " GROUP BY session, state")
        assert {(s, state): n for s, state, n in grouped} == per_session
        c.gather(live)
