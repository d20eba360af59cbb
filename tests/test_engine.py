"""Tests for the vectorized engine: expressions, operators, profiling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.engine import (
    Between,
    Case,
    Col,
    Const,
    ExtractYear,
    HashAggr,
    HashJoin,
    InList,
    Like,
    MergeJoin,
    Project,
    Select,
    Sort,
    TopN,
    UnionAll,
    VectorSource,
    format_profile,
)
from repro.engine.expressions import Substr
from repro.engine.operators import Limit, stable_order
from repro.common.types import date_to_days


def source(**columns):
    cols = {}
    for k, v in columns.items():
        arr = np.asarray(v)
        if arr.dtype.kind in "U":
            obj = np.empty(len(v), dtype=object)
            obj[:] = list(v)
            arr = obj
        cols[k] = arr
    return VectorSource(cols, vector_size=4)  # tiny vectors: exercise slicing


class TestExpressions:
    def test_arithmetic_both_modes(self):
        expr = (Col("a") + Col("b")) * Const(2.0) - Col("a") / Col("b")
        cols = {"a": np.array([4.0, 9.0]), "b": np.array([2.0, 3.0])}
        vec = expr.eval(cols)
        rows = [expr.eval_row({"a": 4.0, "b": 2.0}),
                expr.eval_row({"a": 9.0, "b": 3.0})]
        assert np.allclose(vec, rows)

    def test_comparisons_and_logic(self):
        expr = (Col("a") > 1) & ~(Col("a") >= 3) | (Col("a") == 0)
        cols = {"a": np.array([0, 1, 2, 3])}
        assert list(expr.eval(cols)) == [True, False, True, False]
        for i, v in enumerate([0, 1, 2, 3]):
            assert expr.eval_row({"a": v}) == expr.eval(cols)[i]

    def test_between(self):
        expr = Between(Col("a"), 2, 4)
        assert list(expr.eval({"a": np.array([1, 2, 4, 5])})) == \
            [False, True, True, False]
        assert expr.eval_row({"a": 3})

    def test_in_list(self):
        expr = InList(Col("s"), ["x", "y"])
        arr = np.array(["x", "z", "y"], dtype=object)
        assert list(expr.eval({"s": arr})) == [True, False, True]
        assert not expr.eval_row({"s": "z"})

    def test_like(self):
        expr = Like(Col("s"), "%BRASS")
        arr = np.array(["SMALL BRASS", "BRASSY", "BRASS"], dtype=object)
        assert list(expr.eval({"s": arr})) == [True, False, True]

    def test_like_underscore_and_negate(self):
        expr = Like(Col("s"), "a_c", negate=True)
        arr = np.array(["abc", "ac", "axc"], dtype=object)
        assert list(expr.eval({"s": arr})) == [False, True, False]

    def test_like_escapes_regex_chars(self):
        expr = Like(Col("s"), "a.c%")
        arr = np.array(["a.cd", "abcd"], dtype=object)
        assert list(expr.eval({"s": arr})) == [True, False]

    def test_case(self):
        expr = Case(Col("a") > 0, Const(1.0), Const(-1.0))
        assert list(expr.eval({"a": np.array([5, -5])})) == [1.0, -1.0]
        assert expr.eval_row({"a": -2}) == -1.0

    def test_extract_year(self):
        days = np.array([date_to_days("1994-06-15"),
                         date_to_days("1998-01-01")], dtype=np.int32)
        expr = ExtractYear(Col("d"))
        assert list(expr.eval({"d": days})) == [1994, 1998]
        assert expr.eval_row({"d": int(days[0])}) == 1994

    def test_substr(self):
        expr = Substr(Col("s"), 1, 2)
        arr = np.array(["13-555", "31-666"], dtype=object)
        assert list(expr.eval({"s": arr})) == ["13", "31"]
        assert expr.eval_row({"s": "29-xyz"}) == "29"

    def test_columns_used(self):
        expr = (Col("a") + Col("b")) * Col("a")
        assert expr.columns_used() == ["a", "b"]


class TestSelectProject:
    def test_select_filters(self):
        op = Select(source(a=[1, 2, 3, 4, 5, 6]), Col("a") > 3)
        out = op.run_to_batch()
        assert list(out.columns["a"]) == [4, 5, 6]

    def test_select_nothing_keeps_schema(self):
        op = Select(source(a=[1, 2]), Col("a") > 99)
        out = op.run_to_batch()
        assert out.n == 0 and "a" in out.columns

    def test_project_computes(self):
        op = Project(source(a=[1.0, 2.0]), {"twice": Col("a") * 2})
        assert list(op.run_to_batch().columns["twice"]) == [2.0, 4.0]

    def test_project_broadcasts_scalar(self):
        op = Project(source(a=[1, 2, 3]), {"c": Const(7)})
        assert list(op.run_to_batch().columns["c"]) == [7, 7, 7]


class TestHashAggr:
    def test_single_key_groups(self):
        op = HashAggr(source(g=[1, 2, 1, 2, 1], v=[1.0] * 5), ["g"],
                      [("n", "count", None), ("s", "sum", Col("v"))])
        out = op.run_to_batch()
        by_key = dict(zip(out.columns["g"], out.columns["n"]))
        assert by_key == {1: 3, 2: 2}

    def test_multi_key_with_strings(self):
        op = HashAggr(source(g=["a", "a", "b"], h=[1, 2, 1], v=[1, 2, 3]),
                      ["g", "h"], [("s", "sum", Col("v"))])
        out = op.run_to_batch()
        assert out.n == 3

    def test_min_max_avg(self):
        op = HashAggr(source(g=[1, 1, 2], v=[5.0, 1.0, 7.0]), ["g"], [
            ("lo", "min", Col("v")), ("hi", "max", Col("v")),
            ("mean", "avg", Col("v"))])
        out = op.run_to_batch()
        row = dict(zip(out.columns["g"], zip(out.columns["lo"],
                                             out.columns["hi"],
                                             out.columns["mean"])))
        assert row[1] == (1.0, 5.0, 3.0)
        assert row[2] == (7.0, 7.0, 7.0)

    def test_count_distinct(self):
        op = HashAggr(source(g=[1, 1, 1], v=[3, 3, 9]), ["g"],
                      [("d", "count_distinct", Col("v"))])
        assert list(op.run_to_batch().columns["d"]) == [2]

    def test_total_aggregate_on_empty_returns_one_row(self):
        op = HashAggr(Select(source(v=[1.0]), Col("v") > 99), [],
                      [("s", "sum", Col("v")), ("n", "count", None)])
        out = op.run_to_batch()
        assert out.n == 1
        assert out.columns["s"][0] == 0 and out.columns["n"][0] == 0

    def test_groupby_empty_input_returns_no_rows(self):
        op = HashAggr(Select(source(g=[1], v=[1.0]), Col("v") > 99), ["g"],
                      [("s", "sum", Col("v"))])
        assert op.run_to_batch().n == 0

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExecutionError):
            HashAggr(source(v=[1]), [], [("x", "median", Col("v"))])

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-100, 100)),
                    min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_model(self, pairs):
        keys = np.array([k for k, _ in pairs])
        vals = np.array([float(v) for _, v in pairs])
        op = HashAggr(VectorSource({"g": keys, "v": vals}, 16), ["g"],
                      [("s", "sum", Col("v"))])
        out = op.run_to_batch()
        model = {}
        for k, v in pairs:
            model[k] = model.get(k, 0.0) + v
        got = dict(zip(out.columns["g"].tolist(), out.columns["s"].tolist()))
        assert set(got) == set(model)
        for k in model:
            assert abs(got[k] - model[k]) < 1e-6

    def test_many_groups_arriving_over_many_batches(self):
        """Accumulators grow as arrays while new groups keep arriving:
        first-seen output order (batch by batch, sorted within a batch),
        and sums bit-identical to adding each batch's per-group partial in
        arrival order."""
        rng = np.random.default_rng(4)
        n, vector = 5000, 64
        keys = np.minimum(rng.integers(0, 40, n) + np.arange(n) // 3, 1500)
        vals = rng.uniform(-1, 1, n)
        op = HashAggr(VectorSource({"g": keys, "v": vals}, vector), ["g"], [
            ("s", "sum", Col("v")), ("n", "count", None),
            ("a", "avg", Col("v")), ("hi", "max", Col("v")),
            ("d", "count_distinct", Col("v")),
        ])
        out = op.run_to_batch()
        first_seen = list(dict.fromkeys(
            key for start in range(0, n, vector)
            for key in np.unique(keys[start:start + vector]).tolist()))
        assert out.columns["g"].tolist() == first_seen
        sums = dict.fromkeys(first_seen, 0.0)
        for start in range(0, n, vector):
            k, v = keys[start:start + vector], vals[start:start + vector]
            partial = np.bincount(k, weights=v)
            for key in np.unique(k).tolist():
                sums[key] += partial[key]
        assert out.columns["s"].tolist() == [sums[k] for k in first_seen]
        counts = np.bincount(keys)
        assert out.columns["n"].tolist() == [counts[k] for k in first_seen]
        assert out.columns["n"].dtype == np.int64
        assert np.array_equal(out.columns["a"],
                              out.columns["s"] / out.columns["n"])
        assert out.columns["hi"].tolist() == [
            vals[keys == k].max() for k in first_seen]
        assert out.columns["d"].tolist() == out.columns["n"].tolist()


class TestHashJoin:
    def b(self):
        return source(k=[1, 2, 2, 5], name=["a", "b", "c", "d"])

    def p(self):
        return source(k2=[2, 1, 9, 5, 2], v=[10, 20, 30, 40, 50])

    def test_inner_duplicates_expand(self):
        out = HashJoin(self.b(), self.p(), ["k"], ["k2"]).run_to_batch()
        assert out.n == 6

    def test_semi(self):
        out = HashJoin(self.b(), self.p(), ["k"], ["k2"],
                       "semi").run_to_batch()
        assert sorted(out.columns["k2"]) == [1, 2, 2, 5]

    def test_anti(self):
        out = HashJoin(self.b(), self.p(), ["k"], ["k2"],
                       "anti").run_to_batch()
        assert list(out.columns["k2"]) == [9]

    def test_left_adds_matched_flag(self):
        out = HashJoin(self.b(), self.p(), ["k"], ["k2"], "left",
                       build_payload=["name"]).run_to_batch()
        assert out.n == 7
        assert int(out.columns["__matched"].sum()) == 6

    def test_payload_selection(self):
        out = HashJoin(self.b(), self.p(), ["k"], ["k2"],
                       build_payload=[]).run_to_batch()
        assert "name" not in out.columns

    def test_composite_string_keys(self):
        build = source(a=["x", "y"], b=[1, 2], t=[100, 200])
        probe = source(a2=["y", "x", "y"], b2=[2, 1, 9])
        out = HashJoin(build, probe, ["a", "b"], ["a2", "b2"],
                       build_payload=["t"]).run_to_batch()
        assert sorted(out.columns["t"]) == [100, 200]

    def test_empty_build_inner(self):
        build = Select(self.b(), Col("k") > 100)
        out = HashJoin(build, self.p(), ["k"], ["k2"],
                       build_payload=["name"]).run_to_batch()
        assert out.n == 0

    def test_empty_probe(self):
        probe = Select(self.p(), Col("k2") > 100)
        out = HashJoin(self.b(), probe, ["k"], ["k2"]).run_to_batch()
        assert out.n == 0

    def test_invalid_join_type(self):
        with pytest.raises(ExecutionError):
            HashJoin(self.b(), self.p(), ["k"], ["k2"], "cross")

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    @pytest.mark.parametrize("keys", [["s"], ["s", "i"], ["f", "s", "i"]])
    def test_ranked_keys_match_a_dict_of_tuples(self, how, keys):
        """String and composite keys probe as integer codes; the rows and
        their order are those of one dict lookup per probe row. NaN and
        values only the probe side has match nothing."""
        rng = np.random.default_rng(len(keys))

        def side(n, n_strings):
            s = np.empty(n, dtype=object)
            s[:] = [f"s{v}" for v in rng.integers(0, n_strings, n)]
            f = rng.integers(0, 3, n).astype(np.float64)
            f[rng.random(n) < 0.1] = np.nan
            return {"s": s, "i": rng.integers(0, 4, n), "f": f,
                    "row": np.arange(n)}

        build, probe = side(60, 5), side(90, 7)
        probe = {f"p_{k}": v for k, v in probe.items()}
        out = HashJoin(VectorSource(build, 16), VectorSource(probe, 16),
                       keys, [f"p_{k}" for k in keys], how,
                       build_payload=["row"]).run_to_batch()

        table = {}
        for row, key in enumerate(zip(*(build[k].tolist() for k in keys))):
            table.setdefault(key, []).append(row)
        expected = []
        for vector in range(0, 90, 16):
            missed = []
            for prow in range(vector, min(vector + 16, 90)):
                key = tuple(probe[f"p_{k}"][prow] for k in keys)
                rows = table.get(key, [])
                if how in ("inner", "left"):
                    expected += [(prow, brow) for brow in rows]
                    if how == "left" and not rows:
                        missed.append((prow, 0))
                elif bool(rows) == (how == "semi"):
                    expected.append((prow, None))
            expected += missed  # a vector's unmatched rows follow its matches
        got = list(zip(out.columns["p_row"].tolist(),
                       out.columns["row"].tolist()
                       if how in ("inner", "left") else [None] * out.n))
        assert got == expected
        if how == "left":
            assert out.columns["__matched"].tolist() == [
                tuple(probe[f"p_{k}"][prow] for k in keys) in table
                for prow, _ in expected]


class TestMergeJoin:
    def test_sorted_inputs(self):
        left = source(k=[1, 2, 2, 4], lv=[1, 2, 3, 4])
        right = source(k2=[2, 3, 4], rv=[20, 30, 40])
        out = MergeJoin(left, right, "k", "k2").run_to_batch()
        assert out.n == 3
        assert sorted(out.columns["rv"]) == [20, 20, 40]

    def test_matches_hash_join(self):
        rng = np.random.default_rng(3)
        lk = np.sort(rng.integers(0, 50, 200))
        rk = np.sort(rng.integers(0, 50, 60))
        left = VectorSource({"k": lk}, 16)
        right = VectorSource({"k2": rk, "v": np.arange(60)}, 16)
        mj = MergeJoin(left, right, "k", "k2").run_to_batch()
        hj = HashJoin(VectorSource({"k2": rk, "v": np.arange(60)}, 16),
                      VectorSource({"k": lk}, 16),
                      ["k2"], ["k"]).run_to_batch()
        assert mj.n == hj.n
        assert sorted(mj.columns["v"]) == sorted(hj.columns["v"])


class TestOrdering:
    def test_sort_multi_key_directions(self):
        op = Sort(source(a=[1, 1, 2], b=[9, 3, 5]), ["a", "b"],
                  [True, False])
        out = op.run_to_batch()
        assert list(zip(out.columns["a"], out.columns["b"])) == \
            [(1, 9), (1, 3), (2, 5)]

    def test_sort_strings_descending(self):
        op = Sort(source(s=["b", "c", "a"]), ["s"], [False])
        assert list(op.run_to_batch().columns["s"]) == ["c", "b", "a"]

    @pytest.mark.parametrize("dtype", (np.int64, np.int32, np.float64, bool))
    def test_descending_keeps_the_key_s_own_domain(self, dtype):
        """2**60 and 2**60 + 1 are one float64: negated as floats they
        tied and came back in arrival order."""
        big = {np.int64: 2**60, np.int32: 2**30, np.float64: -0.5,
               bool: 0}[dtype]
        keys = np.array([big, big + 1, big, big + 1], dtype=dtype)
        cols = {"k": keys, "row": np.arange(4)}
        for op in (Sort(VectorSource(cols), ["k", "row"], [False, True]),
                   TopN(VectorSource(cols), ["k", "row"], 4, [False, True])):
            out = op.run_to_batch()
            assert out.columns["row"].tolist() == [1, 3, 0, 2]
            assert out.columns["k"].dtype == dtype
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
        assert stable_order({"k": extremes}, ["k"], [False]).tolist() == [1, 0]

    def test_topn(self):
        op = TopN(source(v=[5, 1, 9, 3]), ["v"], 2, [False])
        assert list(op.run_to_batch().columns["v"]) == [9, 5]

    def test_topn_stability(self):
        op = TopN(source(v=[1, 1, 1], tag=[0, 1, 2]), ["v"], 2)
        assert list(op.run_to_batch().columns["tag"]) == [0, 1]

    def test_limit(self):
        op = Limit(source(v=list(range(10))), 3)
        assert list(op.run_to_batch().columns["v"]) == [0, 1, 2]

    def test_union_all(self):
        op = UnionAll([source(v=[1]), source(v=[2, 3])])
        assert sorted(op.run_to_batch().columns["v"]) == [1, 2, 3]

    def test_stable_order_helper(self):
        cols = {"a": np.array([2, 1, 2]), "b": np.array([1, 1, 0])}
        order = stable_order(cols, ["a", "b"], [True, True])
        assert list(order) == [1, 2, 0]


class TestProfiling:
    def test_profile_tree_counts(self):
        sel = Select(source(a=list(range(100))), Col("a") < 50)
        agg = HashAggr(sel, [], [("n", "count", None)])
        out = agg.run_to_batch()
        assert out.columns["n"][0] == 50
        prof = agg.profile
        assert prof.tuples_in == 50
        assert prof.children[0].tuples_out == 50
        assert prof.children[0].tuples_in == 100
        text = format_profile(prof)
        assert "Aggr" in text and "Select" in text

    def test_a_tree_makes_its_nodes_once_and_a_rerun_is_one_more_stream(self):
        sel = Select(source(a=list(range(10))), Col("a") < 5)
        assert sel.profile is None  # nobody handed it one
        sel.run_to_batch()
        prof = sel.profile
        assert prof.children == [sel.children[0].profile]
        assert (prof.kind, prof.plan, prof.tuples_out) == ("Select", None, 5)
        sel.run_to_batch()
        assert sel.profile is prof and len(prof.stream_times) == 2
        assert prof.tuples_out == 10 and prof.tuples_in == 20
        assert prof.cum_time == max(prof.stream_times)

    def test_cum_time_monotone(self):
        sel = Select(source(a=list(range(1000))), Col("a") < 500)
        agg = HashAggr(sel, [], [("n", "count", None)])
        agg.run_to_batch()
        assert agg.profile.cum_time >= agg.profile.children[0].cum_time
