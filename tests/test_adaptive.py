"""Tests for adaptive, feedback-driven query optimization.

Covers the plan/runner split end to end: the CardinalityFeedbackStore
flipping a broadcast to a repartition on the second run of the same
query, a seeded skewed-build query triggering exactly one mid-query
re-plan with results identical to the static plan, bit-identical plans
from a warmed store (determinism), feedback-tightened admission memory
estimates, the EXPLAIN ANALYZE est/q-error columns, the
``vh$plan_feedback`` system table with its counters and event, SQL-level
cost-based join reordering, and a chaos soak with re-planning enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import ChaosController
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import ExecutionError
from repro.common.types import INT64
from repro.engine.expressions import Col
from repro.mpp.feedback import (
    FEEDBACK_CAPACITY,
    CardinalityFeedbackStore,
    fragment_signature,
)
from repro.mpp.logical import (LAggr, LJoin, LScan, LSelect,
                               derive_scan_triples)
from repro.mpp.plan import QueryPlan, RewriterFlags
from repro.mpp.rewriter import ParallelRewriter
from repro.obs import MetricsRegistry
from repro.sql import execute_sql
from repro.storage import Column, TableSchema
from repro.workload import estimate_query_memory
from tests.conftest import assert_batches_match

N_DIM = 2000
N_FACT = 3000
#: sum(v) over the star join: every fact row matches exactly one dim row
SUM_V = int((np.arange(N_FACT) % 11).sum())


def _star_cluster(n_nodes: int = 4, **overrides) -> VectorHCluster:
    config = Config().scaled_for_tests()
    for key, value in overrides.items():
        setattr(config, key, value)
    c = VectorHCluster(n_nodes=n_nodes, config=config)
    c.create_table(TableSchema(
        "d", [Column("dk", INT64), Column("w", INT64)],
        partition_key=("dk",), n_partitions=4))
    c.create_table(TableSchema(
        "f", [Column("pk", INT64), Column("fk", INT64), Column("v", INT64)],
        partition_key=("pk",), n_partitions=4))
    c.bulk_load("d", {"dk": np.arange(N_DIM), "w": np.arange(N_DIM) % 5})
    c.bulk_load("f", {"pk": np.arange(N_FACT),
                      "fk": np.arange(N_FACT) % N_DIM,
                      "v": np.arange(N_FACT) % 11})
    return c


def _skew_plan():
    """A build side the static model misestimates by ~1370x.

    Three stacked pass-all selections, each also a triple of the scan
    below them, drive the dim estimate down to 2000 * 0.3**6 = 1.5 rows
    (the scan's to 2000 * 0.3**3 = 54), so the rewriter broadcasts a
    build side that actually produces all 2000 rows -- on 4 workers the
    broadcast moves 6000 rows where a reshuffle would move 5000.
    """
    build = LScan("d", ["dk", "w"])
    for _ in range(3):
        build = LSelect(build, Col("dk") >= 0)
    join = LJoin(build=build, probe=LScan("f", ["fk", "v"]),
                 build_keys=["dk"], probe_keys=["fk"], how="inner")
    return LAggr(join, [], [("s", "sum", Col("v")), ("n", "count", None)])


# ------------------------------------------------------- feedback flip


class TestFeedbackFlip:
    def test_second_run_flips_broadcast_to_repartition(self):
        # replan off: the flip must come from the harvested feedback alone
        c = _star_cluster(adaptive_replan=False)
        r1 = c.query(_skew_plan())
        assert "DXchgBroadcast" in r1.plan_text
        assert r1.replans == 0
        # run 1 harvested the real build cardinality into the store, under
        # the signature of the build as planned (its scan's derived triples)
        build_sig = fragment_signature(
            derive_scan_triples(_skew_plan()).child.build)
        assert c.feedback.entries[build_sig].observed == N_DIM
        r2 = c.query(_skew_plan())
        assert "DXchgBroadcast" not in r2.plan_text
        assert "DXchgHashSplit[fk" in r2.plan_text
        for r in (r1, r2):
            assert r.batch.columns["s"][0] == SUM_V
            assert r.batch.columns["n"][0] == N_FACT

    def test_feedback_showing_the_build_larger_swaps_the_join(self):
        """The written build side (f, 3,000 rows) is the larger input:
        static estimates keep the written order, and the cardinalities
        the first run harvests swap build and probe -- with the answer
        unchanged."""
        c = _star_cluster(adaptive_replan=False)

        def plan():
            join = LJoin(build=LScan("f", ["fk", "v"]),
                         probe=LScan("d", ["dk", "w"]),
                         build_keys=["fk"], probe_keys=["dk"], how="inner")
            return LAggr(join, [], [("s", "sum", Col("v")),
                                    ("n", "count", None),
                                    ("sw", "sum", Col("w"))])

        cold, warm = c.query(plan()), c.query(plan())
        assert "HashJoin(inner)[dk=fk]" in cold.plan_text  # build f
        assert "HashJoin(inner)[fk=dk]" in warm.plan_text  # build d
        assert c.feedback.lookup(fragment_signature(LScan("f", ["fk", "v"]))) \
            == N_FACT
        assert_batches_match(cold.batch, warm.batch)
        assert cold.batch.columns["s"][0] == SUM_V
        assert cold.batch.columns["n"][0] == N_FACT

    def test_feedback_disabled_keeps_static_plans(self):
        c = _star_cluster(adaptive_feedback=False)
        assert c.feedback is None
        r1 = c.query(_skew_plan())
        r2 = c.query(_skew_plan())
        assert "DXchgBroadcast" in r1.plan_text
        assert r1.plan_text == r2.plan_text

    def test_estimates_consult_store_before_static_stats(self):
        c = _star_cluster(adaptive_replan=False)
        rewriter = ParallelRewriter(c)
        scan = LScan("d", ["dk"])
        rows, source = rewriter.estimate_with_source(scan)
        assert (rows, source) == (N_DIM, "static")
        c.feedback.observe(fragment_signature(scan), rows, 123.0)
        rows, source = ParallelRewriter(c).estimate_with_source(
            LScan("d", ["dk"]))
        assert (rows, source) == (123.0, "feedback")


class TestBoundedStore:
    """Every fresh-literal statement leaves a couple of entries: the
    store keeps the most recently observed or hit 4,096 of them."""

    def test_the_least_recently_used_entry_makes_room(self):
        registry = MetricsRegistry()
        store = CardinalityFeedbackStore(registry)
        assert FEEDBACK_CAPACITY == 4096
        for i in range(5000):
            store.observe(f"sig{i}", 10.0, float(i))
            if i == 2000:  # old by now, and about to be steered by
                assert store.lookup("sig7") == 7.0
        assert len(store) == FEEDBACK_CAPACITY
        assert registry.value("plan_feedback_evicted_total") == 904
        # what went is the oldest, bar the one a plan hit in between
        gone = [i for i in range(5000) if f"sig{i}" not in store.entries]
        assert gone == [i for i in range(905) if i != 7]
        assert store.lookup("sig0") is None
        assert store.entries["sig7"].hits == 1
        # observing a known signature again adds nothing, evicts nothing
        store.observe("sig4999", 10.0, 1.0)
        assert len(store) == FEEDBACK_CAPACITY
        assert registry.value("plan_feedback_evicted_total") == 904

    def test_twin_stores_evict_identically(self):
        def run():
            store = CardinalityFeedbackStore()
            for i in range(FEEDBACK_CAPACITY + 50):
                store.observe(f"sig{i % 4200}", 1.0, float(i))
                store.lookup(f"sig{(7 * i) % 4200}")
            return list(store.entries)
        assert run() == run()


# ------------------------------------------------------ mid-query re-plan


class TestMidQueryReplan:
    def test_skewed_build_triggers_exactly_one_replan(self):
        c = _star_cluster()
        r = c.query(_skew_plan())
        assert r.replans == 1
        assert c.registry.value("replans_total") == 1
        events = [e for e in c.events if e.kind == "query.replan"]
        assert len(events) == 1
        assert events[0].attrs["choice"] == "broadcast"
        # the trigger was a certain >=10x misestimate: the watcher saw at
        # least threshold * estimate rows enter the broadcast exchange
        assert events[0].attrs["observed"] >= 10 * events[0].attrs["estimated"]
        # the re-planned tree is what EXPLAIN/plan_text renders
        assert "DXchgBroadcast" not in r.plan_text
        assert "DXchgHashSplit[fk" in r.plan_text

    def test_replan_results_match_the_static_plan(self):
        adaptive = _star_cluster()
        static = _star_cluster(adaptive_feedback=False)
        ra = adaptive.query(_skew_plan())
        rs = static.query(_skew_plan())
        assert ra.replans == 1 and rs.replans == 0
        assert ra.batch.columns["s"][0] == rs.batch.columns["s"][0] == SUM_V
        assert ra.batch.columns["n"][0] == rs.batch.columns["n"][0] == N_FACT

    def test_replan_keeps_how_the_query_runs(self):
        """The DXchg schedule and buffering ride in the plan's flags, so
        the re-planned tree runs the way the first one did."""
        c = _star_cluster()
        flags = RewriterFlags(exchange_mode="materialize",
                              thread_to_node=False)
        r = c.query(_skew_plan(), flags=flags, trace=True)
        assert r.replans == 1
        assert r.qplan.flags is flags
        assert r.trace.find("execute").attrs["mode"] == "materialize"
        assert r.batch.columns["s"][0] == SUM_V

    def test_replan_disabled_keeps_the_static_plan_mid_query(self):
        c = _star_cluster(adaptive_replan=False)
        r = c.query(_skew_plan())
        assert r.replans == 0
        assert c.registry.value("replans_total") == 0
        assert "DXchgBroadcast" in r.plan_text

    def test_replan_accounting_accumulates_across_attempts(self):
        c = _star_cluster()
        r = c.query(_skew_plan())
        # the aborted broadcast attempt's rounds and sim time are banked,
        # so totals exceed a clean single-attempt run of the same query
        clean = _star_cluster(adaptive_replan=False)
        clean.query(_skew_plan())  # warm: second run is repartition-only
        r_clean = clean.query(_skew_plan())
        assert r.rounds > r_clean.rounds
        assert r.simulated_parallel_seconds > 0
        # both attempts' exchange stats are kept (attempt 1's broadcast
        # appears next to the final plan's exchanges)
        labels = [ex["label"] for ex in r.exchanges]
        assert any("Broadcast" in label for label in labels)
        assert any("HashSplit" in label for label in labels)

    def test_one_run_carries_both_attempts(self):
        """A forced mid-query re-plan rebuilds the same QueryRun in
        place: its counters are the sum over both attempts, nothing
        stays charged to the shared meter, and the rows are those of a
        run that never re-planned."""
        c = _star_cluster(workload_deterministic=True)
        before = (c.mpi.total_bytes, c.mpi.total_messages)
        ticks = []
        c.workload.round_hooks.append(lambda: ticks.append(1))
        trace = c.query(_skew_plan(), trace=True)
        assert trace.replans == 1
        assert trace.query_id == 1
        [replan] = c.events.of_kind("query.replan")
        assert replan.attrs["query"] == 1
        # the only query on the fabric: its totals are the fabric's, so
        # the cancelled attempt's traffic was neither lost nor doubled
        assert trace.network_bytes == c.mpi.total_bytes - before[0]
        assert trace.network_messages == c.mpi.total_messages - before[1]
        # admitted at submit, so it took one turn in every manager
        # round: none of the aborted attempt's rounds were dropped
        [record] = c.workload.query_records()
        assert record.rounds == trace.rounds == len(ticks)
        phases = [trace.trace.find(name)
                  for name in ("build", "schedule", "exchange.flush")]
        assert phases[1].attrs["rounds"] == trace.rounds
        # two builds, two attempts' steps, one flush: one wall total
        assert sum(p.wall_end - p.wall_start for p in phases) == \
            pytest.approx(trace.elapsed)
        assert trace.simulated_parallel_seconds > 0
        # both builds were given back: no bytes left on the shared meter
        assert all(v == 0 for v in c.workload.meter.current.values())
        # same rows in fewer rounds: the run that does not replan
        static = _star_cluster(workload_deterministic=True,
                               adaptive_replan=False)
        rs = static.query(_skew_plan())
        assert rs.replans == 0
        assert_batches_match(trace.batch, rs.batch)
        assert trace.rounds > rs.rounds


# ---------------------------------------------------------- determinism


class TestDeterminism:
    def test_warmed_store_plans_are_bit_identical(self):
        first, second = _star_cluster(), _star_cluster()
        for c in (first, second):
            c.query(_skew_plan())  # identical warm-up on twin clusters
        e1, e2 = first.explain(_skew_plan()), second.explain(_skew_plan())
        assert e1 == e2
        assert "(fb)" in e1  # the plans actually used the warmed store
        # and a second planning pass on the same cluster is stable too
        assert first.explain(_skew_plan()) == e1


# ------------------------------------------- admission memory estimates


class TestMemoryEstimates:
    def test_estimate_shrinks_toward_actual_after_feedback(self):
        c = _star_cluster()
        c.create_table(TableSchema(
            "m", [Column("k", INT64), Column("x", INT64)],
            partition_key=("k",), n_partitions=4))
        n = 30000
        # hash partitioning preserves relative order, so x stays sorted
        # inside every partition and MinMax block skipping works
        c.bulk_load("m", {"k": np.arange(n), "x": np.arange(n)})

        def mplan():
            scan = LScan("m", ["x"])
            return LAggr(LSelect(scan, Col("x") < 1000),
                         [], [("s", "sum", Col("x"))])

        qp_cold = ParallelRewriter(c).plan(mplan())
        cold = estimate_query_memory(c, qp_cold)
        result = c.query(mplan())
        assert result.batch.columns["s"][0] == sum(range(1000))
        qp_warm = ParallelRewriter(c).plan(mplan())
        warm = estimate_query_memory(c, qp_warm)
        # the scan's measured output (blocks surviving MinMax) is far
        # below the whole table, so the admission estimate tightens
        assert max(warm.values()) < max(cold.values())
        # and the manager actually uses the tightened estimate
        qid = c.submit(mplan())
        record = {r.query_id: r for r in c.workload.query_records()}[qid]
        assert max(record.memory_estimate.values()) == max(warm.values())
        c.gather(qid)


# --------------------------------------------------------- introspection


class TestIntrospection:
    def test_explain_analyze_shows_estimates_and_qerror(self):
        c = _star_cluster(adaptive_replan=False)
        text, result = c.explain_analyze(_skew_plan())
        scan_lines = [line for line in text.splitlines() if "MScan[d]" in line]
        assert scan_lines and "est=54" in scan_lines[0]
        assert "q=37.0" in scan_lines[0]
        # the misestimated build side is visible without the store: the
        # innermost pass-all Select was guessed at 16 against 2000 actual
        select_lines = [line for line in text.splitlines() if "Select" in line]
        assert any("est=16" in line and "q=123.5" in line
                   for line in select_lines)
        # warmed second run marks feedback-backed estimates
        text2, _ = c.explain_analyze(_skew_plan())
        assert "(fb)" in text2

    def test_explain_analyze_renders_the_replanned_tree(self):
        c = _star_cluster()
        text, result = c.explain_analyze(_skew_plan())
        assert result.replans == 1
        assert "DXchgBroadcast" not in text
        assert "DXchgHashSplit[fk" in text

    def test_plan_feedback_system_table_and_counters(self):
        c = _star_cluster(adaptive_replan=False)
        empty = execute_sql(c, "SELECT signature FROM vh$plan_feedback")
        assert empty.n == 0
        c.query(_skew_plan())
        build_sig = fragment_signature(
            derive_scan_triples(_skew_plan()).child.build)
        # run 1 recorded the static guess against the measured rows
        entry = c.feedback.entries[build_sig]
        assert entry.estimated == pytest.approx(N_DIM * 0.3 ** 6)
        assert entry.observed == float(N_DIM)
        hits_before = c.registry.value("plan_feedback_hits_total")
        c.query(_skew_plan())
        out = execute_sql(
            c, "SELECT signature, estimated, observed, hits, updated "
               "FROM vh$plan_feedback")
        assert out.n == len(c.feedback)
        rows = {sig: (est, obs) for sig, est, obs in zip(
            out.columns["signature"], out.columns["estimated"],
            out.columns["observed"])}
        # run 2 planned *from* the store, so estimated converged on the
        # observed truth (last-write-wins re-observation)
        assert rows[build_sig] == (float(N_DIM), float(N_DIM))
        # planning the second run answered estimates from the store
        assert c.registry.value("plan_feedback_hits_total") > hits_before
        assert out.columns["hits"].sum() > 0

    def test_plain_explain_is_annotated_but_static(self):
        c = _star_cluster()
        text = c.explain(_skew_plan())
        assert "est=54" in text  # the doomed static build scan estimate
        assert "(fb)" not in text  # nothing ran yet
        assert "rows=" not in text  # actuals only come from ANALYZE


# --------------------------------------------------- plan/runner split


class TestPlanRunnerSplit:
    def test_rewriter_plan_returns_annotated_queryplan(self):
        c = _star_cluster()
        qplan = ParallelRewriter(c).plan(_skew_plan())
        assert isinstance(qplan, QueryPlan)
        annotated = set(qplan.annotations)
        assert all(node in list(qplan.root.walk()) for node in annotated)
        [decision] = qplan.decisions
        assert decision.choice == "broadcast"
        assert decision.estimated == pytest.approx(N_DIM * 0.3 ** 6)
        assert decision.probe_move_rows == float(N_FACT)

    def test_a_queryplan_is_the_only_thing_that_executes(self):
        c = _star_cluster(adaptive_replan=False)
        qplan = ParallelRewriter(c).plan(_skew_plan())
        result = c.query(qplan)
        assert result.batch.columns["s"][0] == SUM_V
        assert result.qplan is qplan
        for not_a_plan in (qplan.root, _skew_plan(), None):
            with pytest.raises(ExecutionError, match="expected a QueryPlan"):
                c.executor.prepare(
                    not_a_plan, trans=None, scheduler=c.workload.scheduler,
                    meter=c.workload.meter)


# -------------------------------------------------- SQL join reordering


class TestJoinReorder:
    def _sql_cluster(self) -> VectorHCluster:
        c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
        c.create_table(TableSchema(
            "fact", [Column("pk", INT64), Column("k1", INT64),
                     Column("k2", INT64), Column("v", INT64)],
            partition_key=("pk",), n_partitions=4))
        c.create_table(TableSchema(
            "d1", [Column("k1", INT64), Column("a1", INT64)],
            partition_key=("k1",), n_partitions=4))
        c.create_table(TableSchema(
            "d2", [Column("k2", INT64), Column("a2", INT64)],
            partition_key=("k2",), n_partitions=4))
        n = 5000
        c.bulk_load("fact", {"pk": np.arange(n), "k1": np.arange(n) % 1000,
                             "k2": np.arange(n) % 3000,
                             "v": np.arange(n) % 7})
        c.bulk_load("d1", {"k1": np.arange(1000),
                           "a1": np.arange(1000) % 3})
        c.bulk_load("d2", {"k2": np.arange(3000),
                           "a2": np.arange(3000) % 5})
        return c

    #: the pass-all predicate on d2 drags its static scan estimate down
    #: to 3000 * 0.3 = 900 < 1000, so the cold order keeps d2 outermost
    SQL = ("SELECT sum(v) AS s FROM fact "
           "JOIN d2 ON k2 = k2 JOIN d1 ON k1 = k1 WHERE a2 >= 0")

    @staticmethod
    def _scan_order(cluster, sql):
        out = execute_sql(cluster, "EXPLAIN " + sql)
        return [line.strip().split("  <")[0]
                for line in out.columns["plan"] if "MScan" in line]

    def test_feedback_reorders_star_join(self):
        c = self._sql_cluster()
        cold = self._scan_order(c, self.SQL)
        # written order: d1 (last JOIN) is the outermost build
        assert cold[0] == "MScan[d1]"
        r1 = execute_sql(c, self.SQL)
        warm = self._scan_order(c, self.SQL)
        # measured d2 = 3000 > d1 = 1000: the bigger dimension moves
        # outermost so every intermediate result stays small
        assert warm[0] == "MScan[d2]"
        assert warm != cold
        r2 = execute_sql(c, self.SQL)
        assert r1.columns["s"][0] == r2.columns["s"][0]

    def test_cold_plans_keep_the_written_order(self):
        # two fresh clusters, no warm-up: written order, bit-identical
        a, b = self._sql_cluster(), self._sql_cluster()
        assert self._scan_order(a, self.SQL) == self._scan_order(b, self.SQL)
        assert self._scan_order(a, self.SQL)[0] == "MScan[d1]"


# ------------------------------------------------------------ chaos soak


class TestChaosWithReplanning:
    def test_soak_stays_green_with_replanning_enabled(self):
        c = _star_cluster(workload_deterministic=True)
        chaos = ChaosController(c, seed=7, n_faults=8).install()
        qids = [c.submit(_skew_plan()) for _ in range(3)]
        results = [c.gather(qid) for qid in qids]
        for r in results:
            assert r.batch.columns["s"][0] == SUM_V
            assert r.batch.columns["n"][0] == N_FACT
        chaos.drain()
        chaos.final_check()
        assert chaos.report()["violations"] == 0
        # adaptivity was actually exercised under fault injection: the
        # first query re-planned, later ones planned straight from the
        # warmed store
        assert c.registry.value("replans_total") >= 1

    def test_node_loss_mid_replanned_query_recovers(self):
        c = _star_cluster(n_nodes=5, workload_deterministic=True)
        qid = c.submit(_skew_plan())
        for _ in range(2):
            c.workload.step()
        c.fail_node(c.session_master)
        result = c.gather(qid)
        assert result.batch.columns["s"][0] == SUM_V
        record = {r.query_id: r for r in c.workload.query_records()}[qid]
        assert record.state == "finished"
        assert record.retries == 1
