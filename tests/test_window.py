"""Tests for window functions (engine, MPP placement, row-engine parity)."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import ExecutionError
from repro.common.types import INT64, STRING
from repro.cluster import VectorHCluster
from repro.engine import Col, Select, VectorSource
from repro.engine.window import Window
from repro.mpp.logical import LScan, LWindow
from repro.mpp.rewriter import ParallelRewriter
from repro.storage import Column, TableSchema


def source(**columns):
    cols = {}
    for k, v in columns.items():
        arr = np.asarray(v)
        if arr.dtype.kind == "U":
            obj = np.empty(len(v), dtype=object)
            obj[:] = list(v)
            arr = obj
        cols[k] = arr
    return VectorSource(cols, vector_size=4)


class TestWindowOperator:
    def test_row_number(self):
        op = Window(source(g=["a", "b", "a", "a", "b"],
                           v=[5, 1, 3, 4, 2]),
                    ["g"], ["v"], [("rn", "row_number", None)])
        out = op.run_to_batch()
        rows = sorted(zip(out.columns["g"], out.columns["v"],
                          out.columns["rn"]))
        assert rows == [("a", 3, 1), ("a", 4, 2), ("a", 5, 3),
                        ("b", 1, 1), ("b", 2, 2)]

    def test_rank_with_ties(self):
        op = Window(source(g=[1, 1, 1, 1], v=[10, 10, 20, 30]),
                    ["g"], ["v"], [("r", "rank", None),
                                   ("d", "dense_rank", None)])
        out = op.run_to_batch()
        assert list(out.columns["r"]) == [1, 1, 3, 4]
        assert list(out.columns["d"]) == [1, 1, 2, 3]

    def test_cum_sum(self):
        op = Window(source(g=[1, 1, 2, 2], v=[1.0, 2.0, 3.0, 4.0]),
                    ["g"], ["v"], [("cs", "cum_sum", Col("v"))])
        out = op.run_to_batch()
        assert list(out.columns["cs"]) == [1.0, 3.0, 3.0, 7.0]

    def test_partition_aggregates(self):
        op = Window(source(g=["x", "y", "x"], v=[1.0, 5.0, 3.0]),
                    ["g"], [], [("s", "sum", Col("v")),
                                ("m", "avg", Col("v")),
                                ("n", "count", None),
                                ("lo", "min", Col("v")),
                                ("hi", "max", Col("v"))])
        out = op.run_to_batch()
        row = {g: (s, m, n, lo, hi) for g, s, m, n, lo, hi in zip(
            out.columns["g"], out.columns["s"], out.columns["m"],
            out.columns["n"], out.columns["lo"], out.columns["hi"])}
        assert row["x"] == (4.0, 2.0, 2, 1.0, 3.0)
        assert row["y"] == (5.0, 5.0, 1, 5.0, 5.0)

    def test_no_partition_by(self):
        op = Window(source(v=[3, 1, 2]), [], ["v"],
                    [("rn", "row_number", None)])
        out = op.run_to_batch()
        assert list(out.columns["rn"]) == [1, 2, 3]
        assert list(out.columns["v"]) == [1, 2, 3]

    def test_descending_order(self):
        op = Window(source(g=[1, 1], v=[1, 2]), ["g"], ["v"],
                    [("rn", "row_number", None)], ascending=[False])
        out = op.run_to_batch()
        assert list(out.columns["v"]) == [2, 1]
        assert list(out.columns["rn"]) == [1, 2]

    def test_empty_input_keeps_schema(self):
        op = Window(Select(source(g=[1], v=[1]), Col("v") > 9), ["g"],
                    ["v"], [("rn", "row_number", None)])
        out = op.run_to_batch()
        assert out.n == 0 and "rn" in out.columns

    def test_unknown_function_rejected(self):
        with pytest.raises(ExecutionError):
            Window(source(v=[1]), [], [], [("x", "ntile", None)])


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "sales", [Column("region", STRING), Column("sale_id", INT64),
                  Column("amount", INT64)],
        partition_key=("sale_id",), n_partitions=6))
    rng = np.random.default_rng(0)
    n = 2000
    c.bulk_load("sales", {
        "region": rng.choice(["n", "s", "e", "w"], n).astype(object),
        "sale_id": np.arange(n),
        "amount": rng.integers(1, 100, n),
    })
    return c


class TestDistributedWindow:
    def plan(self):
        return LWindow(LScan("sales", ["region", "sale_id", "amount"]),
                       ["region"], ["amount"],
                       [("rn", "row_number", None),
                        ("total", "sum", Col("amount"))])

    def test_reshuffles_on_partition_keys(self, cluster):
        phys = ParallelRewriter(cluster).plan(self.plan()).root
        text = phys.pretty()
        assert "DXchgHashSplit[region]" in text
        assert "Window" in text

    def test_no_reshuffle_when_aligned(self, cluster):
        plan = LWindow(LScan("sales", ["sale_id", "amount"]),
                       ["sale_id"], [], [("n", "count", None)])
        phys = ParallelRewriter(cluster).plan(plan).root
        assert "DXchgHashSplit" not in phys.pretty()

    def test_matches_row_engine(self, cluster):
        from repro.baselines import CompetitorSystem
        raw = {
            "sales": {
                "region": np.concatenate([
                    cluster.tables["sales"].partitions[p]
                    .read_column("region") for p in range(6)]),
                "sale_id": np.concatenate([
                    cluster.tables["sales"].partitions[p]
                    .read_column("sale_id") for p in range(6)]),
                "amount": np.concatenate([
                    cluster.tables["sales"].partitions[p]
                    .read_column("amount") for p in range(6)]),
            }
        }
        hive = CompetitorSystem("hive", workers=3, rows_per_group=512)
        hive.load(raw)
        vh = cluster.query(self.plan()).batch
        base = hive.run(self.plan())
        a = sorted(zip(vh.columns["sale_id"], vh.columns["rn"],
                       vh.columns["total"]))
        b = sorted(zip(base.columns["sale_id"], base.columns["rn"],
                       base.columns["total"]))
        # row_number over ties is non-deterministic across engines; compare
        # the deterministic total and the rank multiset per region instead
        assert [x[0] for x in a] == [x[0] for x in b]
        assert [x[2] for x in a] == [x[2] for x in b]
        assert sorted(x[1] for x in a) == sorted(x[1] for x in b)

    def test_total_window_gathers_to_master(self, cluster):
        plan = LWindow(LScan("sales", ["amount"]), [], ["amount"],
                       [("rn", "row_number", None)])
        result = cluster.query(plan)
        assert result.batch.n == 2000
        assert list(result.batch.columns["rn"][:3]) == [1, 2, 3]
