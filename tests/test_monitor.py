"""The flight recorder: metric history, alert engine, query log, gate.

Covers the sampling ring (cadence, retention via pair-merge compaction,
last/max merging, wall-clock exclusion), the alert rule state machine
(gauge/rate/quantile kinds, for/clear hysteresis, raise/clear events),
the query log (one bounded ring of terminal records in the workload
manager: fingerprints, metric-reset survival, eviction), the bounded
cluster event log, the chaos acceptance
scenario (a seeded node crash deterministically raises then clears an
admission alert visible in ``vh$alerts``), and the perf-trajectory
gate's collect/compare logic.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chaos import ChaosController, FaultPlan, FaultSpec
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import ReproError
from repro.common.types import INT64
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LScan, LSelect, LSort
from repro.obs import (
    AlertRule,
    ClusterEventLog,
    HealthMonitor,
    MetricsHistory,
    MetricsRegistry,
    SimClock,
    default_rules,
    sql_fingerprint,
)
from repro.obs.introspect import _metrics_rows
from repro.obs.monitor import WALL_CLOCK_FAMILIES
from repro.sql import execute_sql
from repro.storage import Column, TableSchema
from repro.workload import manager as workload_manager

N_ROWS = 16000


# ------------------------------------------------------------------ helpers


class _StubCluster:
    """Just enough cluster for a standalone HealthMonitor."""

    def __init__(self):
        self.sim_clock = SimClock()
        self.registry = MetricsRegistry()
        self.events = ClusterEventLog(sim_clock=self.sim_clock)
        self.workers = ["w0", "w1"]


def _monitored_cluster(**overrides) -> VectorHCluster:
    config = Config().scaled_for_tests()
    config.workload_deterministic = True
    for key, value in overrides.items():
        setattr(config, key, value)
    c = VectorHCluster(n_nodes=4, config=config)
    c.monitor.history.cadence = 0.0  # sample every workload round
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


# ------------------------------------------------------------ MetricsHistory


class TestMetricsHistory:
    def _history(self, cadence=0.0, retention=8):
        clock = SimClock()
        reg = MetricsRegistry()
        return MetricsHistory(reg, clock, cadence=cadence,
                              retention=retention), reg, clock

    def test_cadence_spacing_on_sim_clock(self):
        hist, reg, clock = self._history(cadence=1.0)
        reg.gauge("g").set(1)
        assert hist.due()  # first sample is always due
        hist.sample()
        assert not hist.due()
        clock.advance(0.5)
        assert not hist.due()
        clock.advance(0.5)
        assert hist.due()

    def test_cadence_zero_samples_every_round(self):
        hist, _reg, _clock = self._history(cadence=0.0)
        hist.sample()
        assert not hist.due()
        hist.note_round()
        assert hist.due()

    def test_compaction_bounds_memory_and_doubles_interval(self):
        hist, reg, clock = self._history(cadence=1.0, retention=4)
        g = reg.gauge("g")
        for i in range(10):
            g.set(i)
            hist.sample()
            clock.advance(1.0)
        assert len(hist.samples) <= 4
        assert hist.compactions >= 1
        assert hist.interval == 1.0 * 2 ** hist.compactions
        # the newest sample is always exact; older ones got merged
        assert hist.samples[-1].sim_time == 9.0
        times = [s.sim_time for s in hist.samples]
        assert times == sorted(times)

    def test_auto_mode_counters_last_gauges_max(self):
        hist, reg, clock = self._history(cadence=1.0, retention=4)
        c = reg.counter("ops_total")
        g = reg.gauge("depth")
        gauge_values = [0, 9, 2, 1, 5]
        for i, gv in enumerate(gauge_values):
            c.inc(10)  # cumulative: 10, 20, ...
            g.set(gv)
            hist.sample()
            clock.advance(1.0)
        assert hist.compactions == 1
        counts = [v for _, v in hist.series("ops_total")]
        # merged pairs keep the *last* cumulative counter value
        assert counts == [20.0, 40.0, 50.0]
        depths = [v for _, v in hist.series("depth")]
        # ...and the *max* gauge value, so the 9 watermark survives
        assert depths == [9.0, 2.0, 5.0]

    def test_excluded_families_not_sampled(self):
        clock = SimClock()
        reg = MetricsRegistry()
        reg.histogram("executor_stream_seconds", buckets=(1.0,)).observe(0.5)
        reg.counter("kept_total").inc()
        hist = MetricsHistory(reg, clock)
        sample = hist.sample()
        names = {family.name for family in sample.values}
        assert "kept_total" in names
        assert not any(n.startswith("executor_stream_seconds")
                       for n in names)

    def test_series_and_label_filter(self):
        hist, reg, clock = self._history(cadence=1.0)
        c = reg.counter("reads_total", labels=("node",))
        c.inc(3, node="n1")
        c.inc(5, node="n2")
        hist.sample()
        clock.advance(1.0)
        c.inc(1, node="n1")
        hist.sample()
        assert hist.series("reads_total") == [(0.0, 8.0), (1.0, 9.0)]
        assert hist.series("reads_total", labels={"node": "n1"}) == [
            (0.0, 3.0), (1.0, 4.0)]

    def test_rows_and_render_and_export(self):
        hist, reg, _clock = self._history()
        reg.counter("x_total", labels=("node",)).inc(2, node="n1")
        hist.sample()
        rows = hist.rows()
        assert (0, 0.0, "x_total", "node=n1", 2.0) in rows
        text = hist.render_latest()
        assert text.startswith("# metrics_history sample=0 ")
        assert 'x_total{node="n1"} 2' in text
        doc = hist.export_json()
        assert doc["samples"][0]["values"]["x_total{node=n1}"] == 2.0

    def test_histograms_recorded_as_count_and_sum(self):
        hist, reg, _clock = self._history()
        h = reg.histogram("lat_seconds", buckets=(1.0,))
        h.observe(0.5)
        h.observe(0.25)
        hist.sample()
        assert hist.series("lat_seconds_count") == [(0.0, 2.0)]
        ((_, total),) = hist.series("lat_seconds_sum")
        assert total == pytest.approx(0.75)

    def test_a_sample_and_vh_metrics_flatten_alike(self):
        c = _monitored_cluster()
        for _ in range(3):
            c.query(_sum_plan())
        probe = c.registry.histogram("probe_seconds", labels=("node",),
                                     buckets=(0.01, 1.0))
        for node, value in (("n1", 0.5), ("n1", 0.005), ("n2", 2.0)):
            probe.observe(value, node=node)
        sample = c.monitor.history.sample()
        live = _metrics_rows(c)  # the same instant: nothing ran between

        def sampled(metric):
            return not any(metric in (f, f + "_count", f + "_sum")
                           for f in WALL_CLOCK_FAMILIES)

        history = sorted((metric, labels, value)
                         for seq, _t, metric, labels, value
                         in c.monitor.history.rows() if seq == sample.seq)
        assert history == sorted((metric, labels, value)
                                 for metric, _kind, labels, value in live
                                 if sampled(metric))
        # the labelled histogram split per label set
        assert ("probe_seconds_count", "node=n1", 2.0) in history
        assert ("probe_seconds_sum", "node=n1", 0.505) in history
        assert ("probe_seconds_count", "node=n2", 1.0) in history
        assert ("probe_seconds_sum", "node=n2", 2.0) in history

    def test_add_by_tuple_reaches_the_series_inc_does(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labels=("operator", "kernel"))
        c.inc(2, operator="Aggr", kernel="aggr.group")
        c.add(("Aggr", "aggr.group"), 3)
        c.add(("MScan", "decode.pfor"))
        assert c.get(operator="Aggr", kernel="aggr.group") == 5
        assert c.get(operator="MScan", kernel="decode.pfor") == 1
        assert c.copy() == {("Aggr", "aggr.group"): 5,
                            ("MScan", "decode.pfor"): 1}
        with pytest.raises(ReproError, match="cannot decrease"):
            c.add(("Aggr", "aggr.group"), -1)
        with pytest.raises(ReproError, match="cannot decrease"):
            c.inc(-1, operator="Aggr", kernel="aggr.group")
        assert c.get(operator="Aggr", kernel="aggr.group") == 5


# ------------------------------------------------------------- HealthMonitor


class _Harness:
    """A stub cluster + history + monitor driven by explicit steps."""

    def __init__(self, rules, retention: int = 256):
        self.stub = _StubCluster()
        self.history = MetricsHistory(self.stub.registry,
                                      self.stub.sim_clock, cadence=0.0,
                                      retention=retention)
        self.health = HealthMonitor(self.stub, rules)

    def step(self, dt: float = 1.0):
        self.stub.sim_clock.advance(dt)
        sample = self.history.sample()
        self.health.evaluate(sample.sim_time)

    def event_kinds(self):
        return [e.kind for e in self.stub.events
                if e.kind.startswith("alert.")]


class TestAlertRules:
    def test_gauge_rule_raises_and_clears(self):
        h = _Harness([AlertRule("hot", "pressure", threshold=5.0)])
        g = h.stub.registry.gauge("pressure")
        g.set(2)
        h.step()
        assert h.health.firing() == []
        g.set(7)
        h.step()
        (alert,) = h.health.firing()
        assert alert.rule == "hot" and alert.value == 7.0
        assert h.stub.registry.value("alerts_firing") == 1
        g.set(9)  # peak tracked while firing
        h.step()
        g.set(1)
        h.step()
        assert h.health.firing() == []
        assert alert.state == "cleared" and alert.peak == 9.0
        assert h.event_kinds() == ["alert.raised", "alert.cleared"]
        assert h.stub.registry.value("alerts_raised_total", rule="hot") == 1
        assert h.stub.registry.value("alerts_cleared_total", rule="hot") == 1

    def test_for_seconds_requires_sustained_breach(self):
        h = _Harness([AlertRule("hot", "pressure", threshold=5.0,
                                for_seconds=2.0)])
        g = h.stub.registry.gauge("pressure")
        g.set(9)
        h.step()  # breach starts
        g.set(1)
        h.step()  # ...but recovers before 2s: no alert
        assert h.health.alerts == []
        g.set(9)
        h.step()  # t: breach restarts
        h.step()  # t+1: still < 2s
        assert h.health.alerts == []
        h.step()  # t+2: sustained
        assert len(h.health.firing()) == 1

    def test_clear_for_seconds_hysteresis(self):
        h = _Harness([AlertRule("hot", "pressure", threshold=5.0,
                                clear_for_seconds=2.0)])
        g = h.stub.registry.gauge("pressure")
        g.set(9)
        h.step()
        g.set(1)
        h.step()  # ok starts; not yet cleared
        assert len(h.health.firing()) == 1
        g.set(9)
        h.step()  # flap back: ok window resets
        g.set(1)
        h.step()
        h.step()
        h.step()  # 2s of sustained ok
        assert h.health.firing() == []
        (alert,) = h.health.alerts  # one alert, not one per flap
        assert alert.state == "cleared"

    def test_rate_rule_on_counter(self):
        h = _Harness([AlertRule("storm", "replans_total", threshold=5.0,
                                kind="rate")])
        c = h.stub.registry.counter("replans_total")
        h.step()  # base sample; no rate yet
        c.inc(20)
        h.step()  # 20 more over the 1s since the base sample
        (alert,) = h.health.firing()
        assert alert.value == pytest.approx(20.0)

    def test_rate_since_first_evaluation_survives_compaction(self):
        # window_s=0 is "since the rule's first evaluation": the base is
        # the rule's own record, not the oldest history sample, which a
        # compaction merges with the burst after it
        h = _Harness([AlertRule("since_start", "ops_total", threshold=10.0,
                                kind="rate")], retention=4)
        c = h.stub.registry.counter("ops_total")
        h.step()  # t=1: the base, 0 ops
        c.inc(100)
        h.step()  # t=2: 100 ops in 1s
        (alert,) = h.health.firing()
        assert alert.value == pytest.approx(100.0)
        for _ in range(9):  # t=3..11: no more ops, the rate decays
            h.step()
        assert h.history.compactions >= 1
        # 100 / (t - 1) stays above 10 until t=11
        assert alert.state == "cleared" and alert.cleared_sim == 11.0

    def test_gauge_rule_sequence_independent_of_retention(self):
        def run(retention):
            h = _Harness([AlertRule("hot", "pressure", threshold=5.0,
                                    for_seconds=1.0, clear_for_seconds=2.0)],
                         retention=retention)
            g = h.stub.registry.gauge("pressure", labels=("node",))
            for i in range(40):
                g.set((i * 7) % 11, node="a")
                g.set((i * 3) % 8, node="b")
                h.step()
            return h
        short, long = run(4), run(256)
        assert short.history.compactions > 0
        assert long.history.compactions == 0
        assert short.health.sequence()
        assert short.health.sequence() == long.health.sequence()

    def test_quantile_rule_on_histogram(self):
        h = _Harness([AlertRule("slow", "wait_seconds", threshold=1.0,
                                kind="quantile", q=0.95)])
        hist = h.stub.registry.histogram("wait_seconds",
                                         buckets=(0.5, 1.0, 2.0, 4.0))
        for _ in range(20):
            hist.observe(3.0)
        h.step()
        (alert,) = h.health.firing()
        assert alert.value > 1.0

    def test_missing_metric_skips_evaluation(self):
        h = _Harness([AlertRule("ghost", "nope", threshold=1.0)])
        h.step()
        assert h.health.evaluations("ghost") == 0
        assert h.health.alerts == []

    def test_duplicate_rule_rejected(self):
        h = _Harness([AlertRule("hot", "pressure", threshold=5.0)])
        with pytest.raises(ReproError):
            h.health.add_rule(AlertRule("hot", "pressure", threshold=9.0))

    def test_rows_mark_firing_with_sentinel(self):
        h = _Harness([AlertRule("hot", "pressure", threshold=5.0)])
        h.stub.registry.gauge("pressure").set(9)
        h.step()
        ((_, rule, _, state, _, _, _, cleared, _),) = h.health.rows()
        assert (rule, state, cleared) == ("hot", "firing", -1.0)


class TestDefaultRules:
    def test_stock_rules_follow_config(self, cluster):
        names = {r.name for r in default_rules(cluster)}
        assert {"admission_backlog", "query_wait_p95",
                "replication_degraded"} <= names

    def test_memory_and_replan_rules_are_gated_on_config(self, cluster,
                                                         config):
        # memory_watermark follows the admission budget (no budget, no
        # rule); replan_storm is no stock rule: whoever wants it adds it
        assert "memory_watermark" not in {
            r.name for r in default_rules(cluster)}
        config.workload_memory_budget_mb = 64
        c = VectorHCluster(n_nodes=4, config=config)
        rules = {r.name: r for r in default_rules(c)}
        assert rules["memory_watermark"].threshold == 0.9 * 64 * 1024 * 1024
        assert "replan_storm" not in rules
        c.monitor.health.add_rule(AlertRule(
            "replan_storm", "replans_total", threshold=2.0, kind="rate"))
        c.monitor.sample()
        c.registry.counter("replans_total").inc(50)
        c.sim_clock.advance(1.0)
        c.monitor.sample()
        assert [a.rule for a in c.monitor.health.firing()] == ["replan_storm"]

    def test_tenant_saturation_rule_follows_config(self):
        # a stock rule with a fixed threshold; what it follows is the
        # tenant set-up: with no quota'd tenant its metric is absent
        # and it is never evaluated
        c = _monitored_cluster()
        rules = {r.name: r for r in default_rules(c)}
        rule = rules["tenant_quota_saturated"]
        assert rule.metric == "tenant_quota_saturation"
        assert (rule.threshold, rule.op) == (1.0, ">=")
        c.query(_sum_plan())
        assert c.monitor.health.evaluations("admission_backlog") > 0
        assert c.monitor.health.evaluations("tenant_quota_saturated") == 0

    def test_tenant_saturation_alert_raises_and_clears(self):
        # satellite: a tenant overrunning its concurrency quota raises
        # the stock alert, which clears once its backlog drains -- all
        # on the sim clock, so twin runs agree bit for bit
        def run():
            c = _monitored_cluster(workload_max_concurrent=4)
            srv = c.serve()
            srv.add_tenant("capped", weight=1, max_concurrent=1)
            conn = srv.connect("capped")
            for i in range(4):
                conn.query_async(
                    f"SELECT sum(b) AS s FROM t WHERE a < {i + 2}")
            srv.drain()
            return c
        c = run()
        episodes = [a for a in c.monitor.health.alerts
                    if a.rule == "tenant_quota_saturated"]
        assert episodes, "tenant saturation alert never raised"
        assert all(a.state == "cleared" for a in episodes)
        assert episodes[0].peak >= 1.0
        kinds = [e.kind for e in c.events if e.source == "monitor"]
        assert "alert.raised" in kinds and "alert.cleared" in kinds
        assert c.monitor.health.sequence() == run().monitor.health.sequence()


# ----------------------------------------------------------------- QueryLog


class TestQueryLog:
    def test_retention_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(workload_manager, "QUERY_RING_CAPACITY", 2)
        c = _monitored_cluster()
        qids = [c.query(_sum_plan()).query_id for _ in range(5)]
        assert [r.query_id for r in c.workload.terminal_records()] \
            == qids[-2:]
        reg = c.registry
        assert reg.value("query_log_dropped_total") == 3
        assert reg.value("query_log_records_total", state="finished") == 5

    def test_slow_report_orders_by_wall_time(self):
        c = _monitored_cluster()
        c.query(_sum_plan())
        c.query(_sort_plan())
        slowest = max(c.workload.terminal_records(), key=lambda r: r.wall_s)
        report = c.monitor.slow_report(1)
        assert "\n".join(report.splitlines()[1:]).lstrip().startswith(
            f"{slowest.query_id} ")

    def test_sql_fingerprint_is_literal_insensitive(self):
        a = sql_fingerprint("SELECT * FROM t WHERE a < 100 AND s = 'x'")
        b = sql_fingerprint("select *  from t where a < 5 and s = 'yy'")
        c = sql_fingerprint("select * from u where a < 5")
        assert a == b != c


class TestFlightRecorderIntegration:
    def test_cluster_ticks_and_logs_queries(self):
        c = _monitored_cluster()
        c.query(_sum_plan())
        assert len(c.monitor.history.samples) >= 1
        (rec,) = c.workload.terminal_records()
        assert rec.state == "finished" and rec.rows == 1
        assert rec.plan_signature  # programmatic: fingerprinted plan
        assert rec.fingerprint == sql_fingerprint(rec.plan_signature)
        assert rec.sim_s > 0 and rec.rounds > 0

    def test_query_log_survives_metrics_reset(self):
        c = _monitored_cluster()
        c.query(_sum_plan())
        c.metrics().reset()
        assert len(c.workload.terminal_records()) == 1
        assert c.metrics().value("query_log_records_total",
                                 state="finished") == 0

    def test_sql_statement_recorded_with_fingerprint(self):
        c = _monitored_cluster()
        execute_sql(c, "SELECT count(*) AS n FROM t WHERE a < 100")
        execute_sql(c, "SELECT count(*) AS n FROM t WHERE a < 200")
        recs = c.workload.terminal_records()
        assert len(recs) == 2
        assert recs[0].statement.lower().startswith("select")
        # literals differ, fingerprint does not
        assert recs[0].fingerprint == recs[1].fingerprint
        stats = c.monitor.fingerprint_stats()
        assert stats[recs[0].fingerprint]["count"] == 2

    def test_cancelled_query_is_logged(self):
        c = _monitored_cluster()
        qid = c.submit(_sort_plan())
        assert c.workload.cancel(qid)
        states = [r.state for r in c.workload.terminal_records()]
        assert "cancelled" in states

    def test_system_tables_queryable(self):
        c = _monitored_cluster()
        c.query(_sum_plan())
        c.monitor.sample()
        hist = execute_sql(
            c, "select metric, value from vh$metrics_history")
        assert hist.n >= 1
        metrics = set(hist.columns["metric"])
        assert "admission_queue_depth" in metrics
        # the vh$metrics_history SELECT above is itself a managed query,
        # so by now the log holds it too
        qlog = execute_sql(
            c, "select query, state, fingerprint from vh$queries "
            "where state not in ('queued', 'running')")
        assert qlog.n >= 2
        assert all(s == "finished" for s in qlog.columns["state"])
        assert all(qlog.columns["fingerprint"])
        execute_sql(c, "select rule, state from vh$alerts")  # empty but valid


# ----------------------------------------------------- chaos acceptance


def _chaos_scenario():
    """Seeded node crash under a 6-query backlog; returns the cluster."""
    c = _monitored_cluster()
    plan = FaultPlan([FaultSpec(2e-5, "node.crash", c.workers[-1])])
    ChaosController(c, seed=7, plan=plan).install()
    qids = [c.submit(_sort_plan()) for _ in range(6)]
    for qid in qids:
        c.gather(qid)
    c.monitor.sample()  # final evaluation after the drain
    return c


class TestChaosAcceptance:
    def test_crash_raises_then_clears_admission_alert(self):
        c = _chaos_scenario()
        backlog = [a for a in c.monitor.health.alerts
                   if a.rule == "admission_backlog"]
        assert backlog, "admission backlog alert never raised"
        assert all(a.state == "cleared" for a in backlog)
        assert backlog[0].peak >= 2.0  # 6 queries vs 4 core slots
        kinds = [e.kind for e in c.events if e.source == "monitor"]
        assert "alert.raised" in kinds and "alert.cleared" in kinds
        # the queue-depth series has enough samples to plot the episode
        depth = c.monitor.history.series("admission_queue_depth")
        assert len(depth) >= 3
        assert max(v for _, v in depth) >= 2.0

    def test_alerts_visible_through_sql(self):
        c = _chaos_scenario()
        rows = execute_sql(
            c, "select rule, state, raised_sim, cleared_sim from vh$alerts")
        assert rows.n >= 1
        by_rule = dict(zip(rows.columns["rule"], rows.columns["state"]))
        assert by_rule.get("admission_backlog") == "cleared"
        raised = float(rows.columns["raised_sim"][0])
        cleared = float(rows.columns["cleared_sim"][0])
        assert cleared > raised >= 0.0

    def test_same_seed_runs_are_bit_identical(self):
        a, b = _chaos_scenario(), _chaos_scenario()
        assert a.monitor.health.sequence() == b.monitor.health.sequence()
        assert a.monitor.history.rows() == b.monitor.history.rows()
        assert a.monitor.history.render_latest() == \
            b.monitor.history.render_latest()
        assert [r.fingerprint for r in a.workload.terminal_records()] == \
            [r.fingerprint for r in b.workload.terminal_records()]


# ------------------------------------------------------- bounded event log


class TestEventLogRetention:
    def test_keep_all_by_default(self):
        log = ClusterEventLog()
        for i in range(100):
            log.emit("t", "tick", i=i)
        assert len(log) == 100 and log.dropped == 0

    def test_retention_drops_oldest_and_counts(self):
        reg = MetricsRegistry()
        log = ClusterEventLog(retention=3, registry=reg)
        for i in range(10):
            log.emit("t", "tick", i=i)
        assert len(log) == 3
        assert log.dropped == 7
        assert reg.value("events_dropped_total") == 7
        # seq stays monotonic across the drop boundary
        assert [e.seq for e in log] == [7, 8, 9]
        assert [e.seq for e in log.tail(2)] == [8, 9]


# --------------------------------------------------------- trajectory gate


class TestTrajectoryGate:
    def test_flatten_keeps_numeric_scalars_only(self):
        from benchmarks.trajectory import flatten
        flat = flatten({"a": {"b_s": 1, "runs": [1, 2], "name": "x",
                              "ok": True}, "c_qps": 2.5})
        assert flat == {"a.b_s": 1.0, "c_qps": 2.5}

    def test_gating_selects_time_like_keys(self):
        from benchmarks.trajectory import is_gated
        assert is_gated("mix.makespan_s")
        assert is_gated("levels.4.throughput_qps")
        assert is_gated("wait_ms")
        assert not is_gated("rows")
        assert not is_gated("wall_s")  # host wall clock is exempt
        assert not is_gated("x.total_wall_s")
        # the profiler's counts are gated, its wall is not
        assert is_gated("kernels.MScan.decode.pfor.calls")
        assert is_gated("operators.MScan.rows_out")
        assert not is_gated("operators.MScan.wall_s")
        assert not is_gated("kernels.MScan.scan.filter.rows_per_wall_s")
        assert not is_gated("queries.q1.rows")

    def _point(self, tmp_path, name, payload):
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_regression_detected_and_recorded(self, tmp_path):
        from benchmarks.trajectory import collect, compare
        self._point(tmp_path, "x",
                    {"scale_factor": 0.01, "makespan_s": 1.0, "qps_qps": 10})
        old = collect(tmp_path)
        self._point(tmp_path, "x",
                    {"scale_factor": 0.01, "makespan_s": 1.5, "qps_qps": 10})
        regs, _ = compare(collect(tmp_path), old)
        (reg,) = regs
        assert reg["metric"] == "makespan_s"
        # within tolerance: no trip
        self._point(tmp_path, "x",
                    {"scale_factor": 0.01, "makespan_s": 1.2, "qps_qps": 10})
        regs, _ = compare(collect(tmp_path), old)
        assert regs == []

    def test_throughput_gates_in_the_other_direction(self, tmp_path):
        from benchmarks.trajectory import collect, compare
        self._point(tmp_path, "x", {"throughput_qps": 10.0})
        old = collect(tmp_path)
        self._point(tmp_path, "x", {"throughput_qps": 5.0})
        regs, _ = compare(collect(tmp_path), old)
        assert len(regs) == 1 and regs[0]["direction"] == "higher-is-better"
        self._point(tmp_path, "x", {"throughput_qps": 9.0})
        regs, _ = compare(collect(tmp_path), old)
        assert regs == []

    def test_context_change_skips_gating(self, tmp_path):
        from benchmarks.trajectory import collect, compare
        self._point(tmp_path, "x",
                    {"scale_factor": 0.01, "makespan_s": 1.0})
        old = collect(tmp_path)
        self._point(tmp_path, "x",
                    {"scale_factor": 0.05, "makespan_s": 99.0})
        regs, skipped = compare(collect(tmp_path), old)
        assert regs == []
        assert any("context changed" in s for s in skipped)

    def test_update_trajectory_appends_and_gates(self, tmp_path):
        from benchmarks.trajectory import update_trajectory
        self._point(tmp_path, "x", {"makespan_s": 1.0})
        assert update_trajectory(tmp_path) == 0
        doc = json.loads((tmp_path / "BENCH_trajectory.json").read_text())
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["benches"]["x"]["metrics"] == {
            "makespan_s": 1.0}
        # a regression fails the gate but is still recorded
        self._point(tmp_path, "x", {"makespan_s": 2.0})
        assert update_trajectory(tmp_path) == 1
        doc = json.loads((tmp_path / "BENCH_trajectory.json").read_text())
        assert len(doc["entries"]) == 2
        assert doc["entries"][1]["regressions"]

    def test_empty_results_dir_fails(self, tmp_path):
        from benchmarks.trajectory import update_trajectory
        assert update_trajectory(tmp_path) == 1
