"""The one place a scan's skip triples are made: ``derive_scan_triples``
walks the bound selections of a logical plan down to its scans."""

from __future__ import annotations

from repro.engine.expressions import (
    Between, Col, Const, Gt, InList, Le, Like, Not, Param,
)
from repro.mpp.logical import (
    LAggr, LJoin, LProject, LScan, LSelect, LSort, derive_scan_triples,
    predicate_triples,
)


def triples_of(plan) -> dict:
    """table -> skip triples of its (only) scan in the derived plan."""
    return {n.table: n.skip_predicates
            for n in derive_scan_triples(plan).walk() if isinstance(n, LScan)}


class TestPredicateTriples:
    def test_sargable_conjuncts_and_the_flipped_side(self):
        a = Col("a")
        assert predicate_triples(
            (a == 1) & Gt(Const(5), a) & (Col("b") <= 2.5)
            & Between(a, 0, 9) & InList(Col("s"), ["x", "y"])) == [
            ("a", "=", 1), ("a", "<", 5), ("b", "<=", 2.5),
            ("a", ">=", 0), ("a", "<=", 9), ("s", "in", ("x", "y"))]
        # ``5 > a`` as the binder writes it: the column on the right
        assert predicate_triples(Le(Const(3), a)) == [("a", ">=", 3)]
        assert predicate_triples(a > Col("b")) == []

    def test_what_is_not_a_conjunct_of_literals_gives_none(self):
        a = Col("a")
        for predicate in ((a == 1) | (a == 2), Not(a == 1),
                          Not(Between(a, 0, 9)), Not(InList(a, [1])),
                          a + 1 < 5, Like(Col("s"), "x%"), a != 3):
            assert predicate_triples(predicate) == []

    def test_a_slot_stands_where_its_literal_will(self):
        slot = Param(1)
        (triple,) = predicate_triples(Col("a") == slot)
        assert triple[2] is slot
        (triple,) = predicate_triples(InList(Col("a"), [slot, 7]))
        assert triple[2][0] is slot and triple[2][1] == 7


class TestPushDown:
    def test_through_renames_and_only_col_outputs(self):
        plan = LSelect(
            LProject(LScan("t", ["a", "b"]), {"x": Col("a"),
                                             "y": Col("b") + 1}),
            (Col("x") < 4) & (Col("y") < 4))
        assert triples_of(plan) == {"t": [("a", "<", 4)]}

    def test_inner_join_sends_each_triple_to_the_side_holding_it(self):
        join = LJoin(build=LScan("d", ["dk", "w"]),
                     probe=LScan("f", ["fk", "v"]),
                     build_keys=["dk"], probe_keys=["fk"])
        plan = LSelect(join, (Col("w") == 1) & (Col("v") > 2))
        assert triples_of(plan) == {"d": [("w", "=", 1)],
                                    "f": [("v", ">", 2)]}

    def test_a_left_joins_null_supplying_side_takes_none(self):
        join = LJoin(build=LScan("d", ["dk", "w"]),
                     probe=LScan("f", ["fk", "v"]),
                     build_keys=["dk"], probe_keys=["fk"], how="left")
        plan = LSelect(join, (Col("w") == 1) & (Col("v") > 2))
        assert triples_of(plan) == {"d": [], "f": [("v", ">", 2)]}

    def test_semi_and_anti_joins_filter_only_their_probe(self):
        for how in ("semi", "anti"):
            join = LJoin(build=LScan("d", ["dk", "v"]),
                         probe=LScan("f", ["fk", "v"]),
                         build_keys=["dk"], probe_keys=["fk"], how=how)
            assert triples_of(LSelect(join, Col("v") > 2)) == {
                "d": [], "f": [("v", ">", 2)]}

    def test_a_column_both_sides_carry_is_left_alone(self):
        join = LJoin(build=LScan("d", ["dk", "v"]),
                     probe=LScan("f", ["fk", "v"]),
                     build_keys=["dk"], probe_keys=["fk"])
        assert triples_of(LSelect(join, Col("v") > 2)) == {"d": [], "f": []}

    def test_aggregations_and_sorts_stop_them_and_vh_tables_take_none(self):
        below = LSelect(LScan("t", ["a", "b"]), Col("b") > 0)
        plan = LSelect(LAggr(below, ["a"], [("n", "count", None)]),
                       Col("a") == 1)
        assert triples_of(plan) == {"t": [("b", ">", 0)]}
        assert triples_of(LSelect(LSort(LScan("t", ["a"]), ["a"]),
                                  Col("a") == 1)) == {"t": []}
        assert triples_of(LSelect(LScan("vh$queries", ["state"]),
                                  Col("state") == "done")) == {
            "vh$queries": []}

    def test_the_callers_plan_is_left_as_it_was(self):
        scan = LScan("t", ["a"])
        plan = LSelect(scan, Col("a") == 1)
        derived = derive_scan_triples(plan)
        assert scan.skip_predicates == [] and derived is not plan
        assert triples_of(derived) == triples_of(plan) == {
            "t": [("a", "=", 1)]}
