"""Tests for repro.chaos: fault injection and the recovery machinery.

Covers the retry policy, per-link network faults under the MPI retry
path, HDFS replica-fallback reads, the data-loss guard, failover with
queries queued and running (transparent re-dispatch on the survivor
set), the 2PC crash acceptance scenario (node crash between prepare and
commit with four concurrent queries in flight), and seeded-run
determinism: same chaos seed, bit-identical fault schedule, event log
and invariant report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import ChaosController, FaultPlan, FaultSpec
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import (
    DataLossError,
    HdfsError,
    NetworkTimeout,
    RetryBudgetExceeded,
    SimulatedCrash,
)
from repro.common.retry import RetryPolicy
from repro.common.types import INT64
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LScan, LSelect, LSort
from repro.obs import SimClock
from repro.storage import Column, TableSchema

N_ROWS = 16000
SUM_B = int((np.arange(N_ROWS) % 7).sum())


def _chaos_cluster(n_nodes: int = 4, **overrides) -> VectorHCluster:
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


def _stable_sum_plan():
    # restricted to the bulk-loaded keys: immune to rows a chaos-test DML
    # commits while the query is suspended (retried runs re-pin snapshots)
    return LAggr(LSelect(LScan("t", ["a", "b"]), Col("a") < N_ROWS),
                 [], [("s", "sum", Col("b"))])


def _stable_count_plan():
    return LAggr(LSelect(LScan("t", ["a"]), Col("a") < N_ROWS),
                 [], [("n", "count", None)])


def _sort_plan():
    return LSort(LScan("t", ["a", "b"]), ["a"])


def _stable_sort_plan():
    # sorts stream one output batch per round, so these queries stay
    # mid-flight for many workload rounds -- ideal crash victims; the
    # filter keeps results stable when chaos-test DML lands new keys
    return LSort(LSelect(LScan("t", ["a", "b"]), Col("a") < N_ROWS), ["a"])


def _new_key_count(cluster):
    res = cluster.query(
        LAggr(LSelect(LScan("t", ["a"]), Col("a") >= N_ROWS),
              [], [("n", "count", None)]))
    return int(res.batch.columns["n"][0])


# ------------------------------------------------------------------ retry


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.001,
                             multiplier=2.0, max_delay=0.004)
        assert policy.delay_for(1) == 0.001
        assert policy.delay_for(2) == 0.002
        assert policy.delay_for(3) == 0.004
        assert policy.delay_for(5) == 0.004  # capped

    def test_transient_errors_are_retried_on_the_sim_clock(self):
        clock = SimClock()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise NetworkTimeout("flaky")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay=0.001)
        out = policy.run(flaky, clock=clock, retryable=(NetworkTimeout,))
        assert out == "ok"
        assert len(attempts) == 3
        assert clock.seconds == pytest.approx(policy.total_backoff(2))

    def test_budget_exhaustion_chains_the_last_error(self):
        policy = RetryPolicy(max_attempts=3)

        def always():
            raise NetworkTimeout("down")

        with pytest.raises(RetryBudgetExceeded) as ei:
            policy.run(always, retryable=(NetworkTimeout,))
        assert isinstance(ei.value.__cause__, NetworkTimeout)

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5)
        calls = []

        def bad():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            policy.run(bad, retryable=(NetworkTimeout,))
        assert len(calls) == 1


# ------------------------------------------------------------- net faults


class TestNetworkFaults:
    def _fabric_with(self, spec):
        from repro.chaos.faults import NetFaultInjector
        from repro.net.mpi import MpiFabric
        clock = SimClock()
        fabric = MpiFabric(message_size=1024, sim_clock=clock)
        injector = NetFaultInjector()
        injector.arm(spec)
        fabric.faults = injector
        return fabric, clock

    def test_dropped_message_is_retried_and_charged(self):
        fabric, clock = self._fabric_with(
            FaultSpec(0.0, "net.drop", "a->b", count=2))
        fabric.send("a", "b", 4096)
        assert fabric.dropped_messages == 2
        assert fabric.send_retries == 2
        assert fabric.total_messages == 4  # the payload finally landed
        assert clock.seconds == pytest.approx(
            fabric.retry_policy.total_backoff(2))

    def test_drop_storm_exhausts_the_retry_budget(self):
        fabric, _clock = self._fabric_with(
            FaultSpec(0.0, "net.drop", "a->b", count=99))
        with pytest.raises(RetryBudgetExceeded):
            fabric.send("a", "b", 100)

    def test_delay_fault_advances_the_clock(self):
        fabric, clock = self._fabric_with(
            FaultSpec(0.0, "net.delay", "a->b", param=0.25))
        fabric.send("a", "b", 100)
        assert clock.seconds == pytest.approx(0.25)

    def test_straggler_link_charges_proportional_time(self):
        from repro.net.mpi import LINK_BANDWIDTH
        n_bytes = 10 * 1024 * 1024
        fabric, clock = self._fabric_with(
            FaultSpec(0.0, "net.straggler", "a->b", param=3.0))
        fabric.send("a", "b", n_bytes)
        assert clock.seconds == pytest.approx(
            n_bytes / LINK_BANDWIDTH * 2.0)

    def test_duplicate_accounts_double_delivery(self):
        fabric, _clock = self._fabric_with(
            FaultSpec(0.0, "net.dup", "a->b", count=1))
        fabric.send_message("a", "b", 512)
        fabric.send_message("a", "b", 512)
        assert int(fabric._duplicates.total()) == 1
        assert fabric.total_messages == 3  # first message shipped twice

    def test_other_links_are_untouched(self):
        fabric, clock = self._fabric_with(
            FaultSpec(0.0, "net.drop", "a->b", count=5))
        fabric.send("b", "a", 100)
        fabric.send("a", "c", 100)
        assert fabric.dropped_messages == 0
        assert clock.seconds == 0.0


# ------------------------------------------------------------ hdfs faults


class TestHdfsFaults:
    def _hdfs(self):
        from repro.hdfs.cluster import HdfsCluster
        from repro.chaos.faults import HdfsFaultInjector
        clock = SimClock()
        config = Config().scaled_for_tests()
        hdfs = HdfsCluster(["n1", "n2", "n3"], config, sim_clock=clock)
        hdfs.write_file("/f", b"payload" * 100, writer="n1")
        injector = HdfsFaultInjector()
        hdfs.fault_injector = injector
        return hdfs, injector, clock

    def test_read_error_falls_back_to_another_replica(self):
        hdfs, injector, _clock = self._hdfs()
        primary = hdfs.replica_locations("/f")[0]
        injector.arm(FaultSpec(0.0, "hdfs.read_error", primary, count=1))
        data = hdfs.read("/f", reader=primary)
        assert data == b"payload" * 100
        assert hdfs.read_errors == 1
        # the fallback holder served the bytes remotely
        others = [n for n in hdfs.replica_locations("/f") if n != primary]
        assert sum(hdfs.nodes[n].bytes_read_remote for n in others) > 0

    def test_every_replica_erroring_backs_off_and_retries(self):
        hdfs, injector, clock = self._hdfs()
        for holder in hdfs.replica_locations("/f"):
            injector.arm(FaultSpec(0.0, "hdfs.read_error", holder, count=1))
        data = hdfs.read("/f", reader="n1")
        assert data == b"payload" * 100
        assert hdfs.read_errors == 3
        assert clock.seconds > 0  # one backoff before the clean retry

    def test_slow_disk_charges_the_sim_clock(self):
        hdfs, injector, clock = self._hdfs()
        primary = hdfs.replica_locations("/f")[0]
        injector.arm(FaultSpec(0.0, "hdfs.slow_disk", primary,
                               param=0.125, count=1))
        hdfs.read("/f", reader=primary)
        assert clock.seconds == pytest.approx(0.125)

    def test_dead_holders_still_raise_cleanly(self):
        hdfs, _injector, _clock = self._hdfs()
        for node in hdfs.replica_locations("/f"):
            hdfs.mark_node_dead(node)
        with pytest.raises(HdfsError, match="dead"):
            hdfs.read("/f", reader="n1")


# ----------------------------------------------------- data-loss guard


class TestDataLoss:
    def test_failing_last_replica_holder_is_a_clean_error(self):
        c = _chaos_cluster(replication=1)
        # with replication 1 every partition file has exactly one holder;
        # killing any worker that stores partition data must refuse
        holders = {c.hdfs.replica_locations(p)[0]
                   for p in c.hdfs.list_files("/db/t/")}
        victim = sorted(holders)[0]
        with pytest.raises(DataLossError, match=r"^data loss: ") as ei:
            c.fail_node(victim)
        assert "table t partition" in str(ei.value)
        lost = [e for e in c.events if e.kind == "data_lost"]
        assert lost and lost[0].attrs["table"] == "t"
        # the guard fired before any state changed: node is still alive
        assert victim in c.hdfs.alive_nodes()
        assert victim in c.workers

    def test_replicated_cluster_survives_the_same_kill(self):
        c = _chaos_cluster()  # replication 3
        victim = c.workers[1]
        c.fail_node(victim)
        assert victim not in c.workers
        res = c.query(_stable_sum_plan())
        assert res.batch.columns["s"][0] == SUM_B


# ------------------------------------- failover with live queries (sat 1)


class TestFailoverWithQueries:
    def test_session_master_loss_redispatches_running_queries(self):
        c = _chaos_cluster()
        old_master = c.session_master
        q1 = c.submit(_stable_sort_plan())
        q2 = c.submit(_stable_sort_plan())
        q3 = c.submit(_sort_plan())
        for _ in range(3):
            c.workload.step()
        records = {r.query_id: r for r in c.workload.query_records()}
        assert all(records[q].state == "running" for q in (q1, q2, q3))

        c.fail_node(old_master)
        assert c.session_master != old_master
        # transparently retried to correct results on the survivor set
        for qid in (q1, q2, q3):
            sorted_a = c.gather(qid).batch.columns["a"]
            assert len(sorted_a) == N_ROWS
            assert sorted_a[0] == 0 and sorted_a[-1] == N_ROWS - 1
        assert all(records[q].retries == 1 for q in (q1, q2, q3))
        assert int(c.registry.counter(
            "queries_retried_total", "").total()) == 3
        retry_events = [e for e in c.events if e.kind == "query.retry"]
        assert len(retry_events) == 3

    def test_retries_are_visible_in_vh_queries(self):
        c = _chaos_cluster()
        qid = c.submit(_stable_sort_plan())
        c.workload.step()
        c.fail_node(c.session_master)
        c.gather(qid)
        res = c.query(LScan("vh$queries", ["query", "state", "retries"]))
        by_id = dict(zip(res.batch.columns["query"].tolist(),
                         res.batch.columns["retries"].tolist()))
        assert by_id[qid] == 1

    def test_retry_budget_exhaustion_fails_the_query(self):
        c = _chaos_cluster(n_nodes=6, query_retry_budget=1)
        qid = c.submit(_sort_plan())
        c.workload.step()
        c.fail_node(c.session_master)
        c.workload.step()
        c.fail_node(c.session_master)  # second loss exceeds the budget
        record = {r.query_id: r for r in c.workload.query_records()}[qid]
        assert record.state == "failed"
        assert "lost" in str(record.error)

    def test_queued_query_survives_failover_untouched(self):
        c = _chaos_cluster(workload_max_concurrent=1)
        running = c.submit(_sort_plan())
        queued = c.submit(_stable_count_plan())
        c.workload.step()
        records = {r.query_id: r for r in c.workload.query_records()}
        assert records[queued].state == "queued"
        c.fail_node(c.session_master)
        assert c.gather(queued).batch.columns["n"][0] == N_ROWS
        assert records[queued].retries == 0  # never started, never retried
        assert records[running].retries == 1
        c.gather(running)


# ------------------------------------------------- 2PC crash acceptance


class Test2PCCrashRecovery:
    def _crash_commit(self, point):
        """Crash the session master at ``point`` of a 2-partition commit
        while four concurrent queries are in flight; drive recovery."""
        c = _chaos_cluster()
        plan = FaultPlan([FaultSpec(0.0, "txn.crash", point)])
        chaos = ChaosController(c, seed=11, plan=plan).install()
        qids = [c.submit(_stable_sort_plan()) for _ in range(4)]
        for _ in range(3):
            c.workload.step()  # queries mid-flight; the tick arms the crash
        records = {r.query_id: r for r in c.workload.query_records()}
        assert sum(1 for q in qids if records[q].state == "running") == 4

        old_master = c.session_master
        trans = c.begin()
        new_a = np.arange(N_ROWS, N_ROWS + 64)  # spans all 4 partitions
        c.insert("t", {"a": new_a, "b": np.ones(64, dtype=np.int64)},
                 trans=trans)
        assert len(trans.parts) > 1
        with pytest.raises(SimulatedCrash) as ei:
            trans.commit()
        assert ei.value.node == old_master
        assert ei.value.point == point
        chaos.handle_crash(ei.value)
        return c, chaos, qids, records, old_master

    def test_crash_after_decision_commits_exactly_once(self):
        c, chaos, qids, records, old_master = \
            self._crash_commit("decision.logged")
        assert c.session_master != old_master
        # committed effects are durable exactly once after WAL replay
        assert _new_key_count(c) == 64
        resolved = [e for e in c.events if e.kind == "resolved_commit"]
        assert len(resolved) == 1
        # resolving again finds nothing (idempotent, no double apply)
        again = c.txn.resolve_in_doubt()
        assert again == {"committed": [], "aborted": []}
        assert _new_key_count(c) == 64
        self._assert_queries_recovered(c, qids, records)
        assert chaos.final_check().ok

    def test_crash_mid_apply_completes_remaining_partitions(self):
        c, chaos, qids, records, _old = self._crash_commit("commit.partial")
        # one partition applied before the crash, the rest at recovery --
        # but every inserted row is present exactly once
        assert _new_key_count(c) == 64
        self._assert_queries_recovered(c, qids, records)
        assert chaos.final_check().ok

    def test_crash_before_decision_presumes_abort(self):
        c, chaos, qids, records, _old = self._crash_commit("prepare.done")
        # no decision record: the in-doubt txn resolves to abort and its
        # effects are absent
        assert _new_key_count(c) == 0
        resolved = [e for e in c.events if e.kind == "resolved_abort"]
        assert len(resolved) == 1
        again = c.txn.resolve_in_doubt()
        assert again == {"committed": [], "aborted": []}
        self._assert_queries_recovered(c, qids, records)
        assert chaos.final_check().ok

    def _assert_queries_recovered(self, c, qids, records):
        for qid in qids:
            sorted_a = c.gather(qid).batch.columns["a"]
            assert len(sorted_a) == N_ROWS
            assert sorted_a[0] == 0 and sorted_a[-1] == N_ROWS - 1
        assert all(records[q].state == "finished" for q in qids)
        assert all(records[q].retries >= 1 for q in qids)


# ------------------------------------------------------------ controller


class TestChaosController:
    def test_plan_fires_and_reports(self):
        c = _chaos_cluster()
        chaos = ChaosController(c, seed=5, n_faults=6).install()
        for plan_ in (_stable_sum_plan(), _stable_count_plan()):
            c.query(plan_)
        chaos.drain()
        report = chaos.final_check()
        assert report.ok
        assert len(chaos.fired) == len(chaos.plan)
        injected = [e for e in c.events if e.kind == "injected"]
        assert len(injected) == len(chaos.plan)
        assert chaos.report()["violations"] == 0

    def test_vh_faults_table_lists_the_plan(self):
        c = _chaos_cluster()
        chaos = ChaosController(c, seed=5, n_faults=4).install()
        c.query(_stable_count_plan())
        chaos.drain()
        res = c.query(LScan("vh$faults", ["idx", "kind", "status"]))
        assert len(res.batch.columns["idx"]) == len(chaos.plan)
        assert set(res.batch.columns["status"]) == {"fired"}

    def test_preempt_storm_shrinks_then_restores_the_footprint(self):
        c = _chaos_cluster()
        c.dbagent.grow_footprint(2)
        before = len(c.dbagent.slices)
        plan = FaultPlan([
            FaultSpec(0.0, "yarn.preempt_storm", c.workers[0], param=0.0)])
        chaos = ChaosController(c, seed=1, plan=plan).install()
        c.query(_stable_count_plan())
        chaos.drain()
        preempts = [e for e in c.events if e.kind == "slice_preempted"]
        assert preempts  # the storm really evicted slice containers
        assert [e for e in c.events if e.kind == "storm_over"]
        assert len(c.dbagent.slices) == before
        assert chaos.final_check().ok

    def test_uninstall_detaches_every_hook(self):
        c = _chaos_cluster()
        chaos = ChaosController(c, seed=2, n_faults=3).install()
        chaos.uninstall()
        assert c.mpi.faults is None
        assert c.hdfs.fault_injector is None
        assert c.txn.crash_hook is None
        assert chaos.tick not in c.workload.round_hooks
        assert c.chaos is None


# ---------------------------------------------------- determinism (sat 4)


def _event_fingerprint(cluster):
    return [(e.seq, round(e.sim_time, 12), e.source, e.kind, e.detail)
            for e in cluster.events]


def _seeded_chaos_run(seed):
    c = _chaos_cluster()
    chaos = ChaosController(c, seed=seed, n_faults=10,
                            crash_nodes=1).install()
    qids = [c.submit(p) for p in (
        _stable_sum_plan(), _stable_count_plan(), _sort_plan())]
    results = [c.gather(q) for q in qids]
    assert results[0].batch.columns["s"][0] == SUM_B
    assert results[1].batch.columns["n"][0] == N_ROWS
    chaos.drain()
    chaos.final_check()
    return (chaos.report(), _event_fingerprint(c),
            round(c.sim_clock.seconds, 12))


class TestDeterminism:
    def test_same_seed_same_schedule_events_and_invariants(self):
        first = _seeded_chaos_run(42)
        second = _seeded_chaos_run(42)
        assert first[0] == second[0]  # chaos report incl. fault schedule
        assert first[1] == second[1]  # full event log (minus wall time)
        assert first[2] == second[2]  # simulated clock
        assert first[0]["violations"] == 0

    def test_different_seed_different_schedule(self):
        plan_a = FaultPlan.generate(1, ["n1", "n2", "n3"], n_faults=8)
        plan_b = FaultPlan.generate(2, ["n1", "n2", "n3"], n_faults=8)
        assert plan_a.schedule() != plan_b.schedule()
