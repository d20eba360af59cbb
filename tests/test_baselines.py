"""Tests for the competitor baselines: formats, row engine, profiles."""

import numpy as np
import pytest

from repro.baselines import CompetitorSystem, OrcLikeTable, ParquetLikeTable
from repro.baselines.rowengine import RowEngineRunner
from repro.common.config import Config
from repro.engine.expressions import Col
from repro.hdfs import HdfsCluster
from repro.mpp.logical import LAggr, LJoin, LProject, LScan, LSelect, LSort


@pytest.fixture()
def hdfs():
    return HdfsCluster(["b1", "b2", "b3"], Config().scaled_for_tests())


def sample_columns(n=5000):
    rng = np.random.default_rng(0)
    return {
        "k": np.arange(n, dtype=np.int64),
        "d": np.sort(rng.integers(8000, 9000, n)).astype(np.int32),
        "v": rng.random(n),
        "s": np.array([f"tag{i % 5}" for i in range(n)], dtype=object),
    }


class TestFormats:
    def test_write_read_roundtrip(self, hdfs):
        table = OrcLikeTable(hdfs, "/b/t.orc", rows_per_group=512)
        cols = sample_columns(2000)
        table.write(cols)
        rows = list(table.scan_rows(["k", "s"]))
        assert len(rows) == 2000
        assert rows[17] == {"k": 17, "s": "tag2"}

    def test_row_groups_split_by_row_count(self, hdfs):
        table = ParquetLikeTable(hdfs, "/b/t.parquet", rows_per_group=512)
        table.write(sample_columns(2000))
        assert len(table.groups) == 4

    def test_orc_skipping_saves_cpu_not_io(self, hdfs):
        table = OrcLikeTable(hdfs, "/b/t.orc", rows_per_group=512)
        table.write(sample_columns(4000))
        table.reset_counters()
        rows = list(table.scan_rows(["k", "d"], [("d", "<", 8100)]))
        assert all(r["d"] < 8200 for r in rows[:50])
        assert table.groups_skipped > 0
        assert table.bytes_decompressed < table.bytes_read  # IO not skipped

    def test_parquet_skipping_forces_block_read(self, hdfs):
        table = ParquetLikeTable(hdfs, "/b/t.pq", rows_per_group=512)
        table.write(sample_columns(4000))
        table.reset_counters()
        list(table.scan_rows(["k", "d"], [("d", "<", 8100)]))
        full = sum(table.bytes_per_column()[c] for c in ("k", "d"))
        assert table.groups_skipped > 0
        assert table.bytes_read == full  # even skipped groups were read

    def test_parquet_without_minmax_reads_everything(self, hdfs):
        table = ParquetLikeTable(hdfs, "/b/t.pq", rows_per_group=512,
                                 use_minmax=False)
        table.write(sample_columns(4000))
        table.reset_counters()
        list(table.scan_rows(["d"], [("d", "<", 8100)]))
        assert table.groups_skipped == 0

    def test_bytes_per_column(self, hdfs):
        table = OrcLikeTable(hdfs, "/b/t.orc", rows_per_group=512)
        table.write(sample_columns(2000))
        sizes = table.bytes_per_column()
        assert set(sizes) == {"k", "d", "v", "s"}
        assert sum(sizes.values()) == table.total_bytes()


class TestRowEngine:
    @pytest.fixture()
    def runner(self, hdfs):
        table = OrcLikeTable(hdfs, "/b/t.orc", rows_per_group=512)
        table.write(sample_columns(3000))
        return RowEngineRunner({"t": table}, workers=3)

    def test_select_project(self, runner):
        plan = LProject(LSelect(LScan("t", ["k", "v"]), Col("k") < 10),
                        {"twice": Col("k") * 2})
        out = runner(plan)
        assert list(out.columns["twice"]) == [2 * i for i in range(10)]

    def test_aggregate(self, runner):
        plan = LAggr(LScan("t", ["s", "k"]), ["s"],
                     [("n", "count", None), ("m", "max", Col("k"))])
        out = runner(plan)
        assert out.n == 5
        assert dict(zip(out.columns["s"], out.columns["n"]))["tag0"] == 600

    def test_join_types(self, runner, hdfs):
        dim = OrcLikeTable(hdfs, "/b/dim.orc", rows_per_group=512)
        dim.write({"dk": np.array([0, 1, 2], np.int64),
                   "label": np.array(["a", "b", "c"], object)})
        runner.tables["dim"] = dim
        inner = runner(LJoin(build=LScan("dim", ["dk", "label"]),
                             probe=LSelect(LScan("t", ["k"]), Col("k") < 5),
                             build_keys=["dk"], probe_keys=["k"]))
        assert inner.n == 3
        anti = runner(LJoin(build=LScan("dim", ["dk", "label"]),
                            probe=LSelect(LScan("t", ["k"]), Col("k") < 5),
                            build_keys=["dk"], probe_keys=["k"], how="anti"))
        assert sorted(anti.columns["k"]) == [3, 4]

    def test_sort_directions(self, runner):
        plan = LSort(LSelect(LScan("t", ["k"]), Col("k") < 5), ["k"],
                     [False])
        assert list(runner(plan).columns["k"]) == [4, 3, 2, 1, 0]

    def test_stats_populated(self, runner):
        runner(LAggr(LScan("t", ["k"]), [], [("n", "count", None)]))
        stats = runner.last_stats
        assert stats.rows_scanned == 3000
        assert stats.scan_seconds > 0
        assert stats.n_stages == 2

    def test_simulated_time_profiles(self, runner):
        runner(LAggr(LScan("t", ["k"]), [], [("n", "count", None)]))
        multi = runner.last_stats.simulated_parallel_seconds(
            workers=9, single_core_joins=False, stage_overhead=0.0)
        single = runner.last_stats.simulated_parallel_seconds(
            workers=9, single_core_joins=True, stage_overhead=0.0)
        overheady = runner.last_stats.simulated_parallel_seconds(
            workers=9, single_core_joins=False, stage_overhead=0.5)
        assert single >= multi
        assert overheady > multi


class TestDeltaStores:
    @pytest.fixture()
    def runner(self, hdfs):
        table = OrcLikeTable(hdfs, "/b/t.orc", rows_per_group=512)
        table.write(sample_columns(1000))
        return RowEngineRunner({"t": table}, workers=3,
                               delta_keys={"t": ("k",)})

    def count(self, runner):
        out = runner(LAggr(LScan("t", ["k"]), [], [("n", "count", None)]))
        return int(out.columns["n"][0])

    def test_insert_and_delete_merge(self, runner):
        runner.delta_insert("t", [{"k": 10**6, "d": 8100, "v": 0.0,
                                   "s": "new"}])
        assert self.count(runner) == 1001
        runner.delta_delete("t", [(5,), (6,)])
        assert self.count(runner) == 999

    def test_merge_cost_counted(self, runner):
        runner.delta_delete("t", [(5,)])
        self.count(runner)
        assert runner.last_stats.delta_merged_rows == 1000


class TestCompetitorProfiles:
    def test_profiles_load_and_answer(self, tpch_data):
        from repro.tpch.queries import q6
        results = {}
        for name in ("hive", "impala", "sparksql", "hawq"):
            system = CompetitorSystem(name, workers=3, rows_per_group=1024)
            system.load(tpch_data)
            out = q6(system.runner)
            results[name] = round(float(out.columns["revenue"][0]), 2)
        assert len(set(results.values())) == 1  # all agree on the answer

    def test_impala_never_skips_hive_does(self):
        # a date-sorted table where skipping is possible
        data = {"t": sample_columns(4000)}
        plan = LSelect(LScan("t", ["k", "d"]),
                       Col("d") < 8100)
        hive = CompetitorSystem("hive", workers=3, rows_per_group=512)
        impala = CompetitorSystem("impala", workers=3, rows_per_group=512)
        hive.load(data)
        impala.load(data)
        a = hive.run(plan)
        b = impala.run(plan)
        assert a.n == b.n  # same answer...
        hive_skipped = sum(t.groups_skipped for t in hive.tables.values())
        impala_skipped = sum(t.groups_skipped
                             for t in impala.tables.values())
        assert hive_skipped > 0  # ...but hive skipped row groups
        assert impala_skipped == 0  # and Impala read everything
