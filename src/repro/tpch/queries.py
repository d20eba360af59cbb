"""All 22 TPC-H queries as logical-plan builders.

Each query is a function ``qN(run)`` where ``run(plan) -> Batch`` executes a
logical plan -- on the VectorH cluster, or on the baseline row engine, so
both systems answer the *same* plans. Sub-queries (Q11, Q15, Q22 scalar
aggregates; Q17/Q18/Q20/Q21 correlated predicates) are hand-decorrelated
into joins/semi-joins/anti-joins plus at most one extra plan execution,
exactly the shapes a production optimizer produces for them.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.common.types import date_to_days as d
from repro.engine.batch import Batch
from repro.engine.expressions import (
    Between,
    Case,
    Col,
    Const,
    ExtractYear,
    InList,
    Like,
    Substr,
)
from repro.mpp.logical import (
    LAggr,
    LJoin,
    LProject,
    LScan,
    LSelect,
    LSort,
    LTopN,
)

Runner = Callable[[object], Batch]

REVENUE = Col("l_extendedprice") * (Const(1.0) - Col("l_discount"))


def _ident(*names):
    return {n: Col(n) for n in names}


# ---------------------------------------------------------------------- Q1

def q1(run: Runner) -> Batch:
    """Pricing summary report."""
    cutoff = d("1998-09-02")  # 1998-12-01 minus 90 days
    scan = LScan("lineitem",
                 ["l_returnflag", "l_linestatus", "l_quantity",
                  "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
    sel = LSelect(scan, Col("l_shipdate") <= cutoff)
    proj = LProject(sel, {
        "l_returnflag": Col("l_returnflag"),
        "l_linestatus": Col("l_linestatus"),
        "l_quantity": Col("l_quantity"),
        "l_extendedprice": Col("l_extendedprice"),
        "l_discount": Col("l_discount"),
        "disc_price": REVENUE,
        "charge": REVENUE * (Const(1.0) + Col("l_tax")),
    })
    aggr = LAggr(proj, ["l_returnflag", "l_linestatus"], [
        ("sum_qty", "sum", Col("l_quantity")),
        ("sum_base_price", "sum", Col("l_extendedprice")),
        ("sum_disc_price", "sum", Col("disc_price")),
        ("sum_charge", "sum", Col("charge")),
        ("avg_qty", "avg", Col("l_quantity")),
        ("avg_price", "avg", Col("l_extendedprice")),
        ("avg_disc", "avg", Col("l_discount")),
        ("count_order", "count", None),
    ])
    return run(LSort(aggr, ["l_returnflag", "l_linestatus"]))


# ---------------------------------------------------------------------- Q2

def _q2_european_partsupp():
    ps = LScan("partsupp", ["ps_partkey", "ps_suppkey", "ps_supplycost"])
    supp = LScan("supplier", ["s_suppkey", "s_nationkey", "s_acctbal",
                              "s_name", "s_address", "s_phone", "s_comment"])
    nat = LScan("nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = LSelect(LScan("region", ["r_regionkey", "r_name"]),
                  Col("r_name") == "EUROPE")
    j1 = LJoin(build=supp, probe=ps, build_keys=["s_suppkey"],
               probe_keys=["ps_suppkey"])
    j2 = LJoin(build=nat, probe=j1, build_keys=["n_nationkey"],
               probe_keys=["s_nationkey"])
    return LJoin(build=reg, probe=j2, build_keys=["r_regionkey"],
                 probe_keys=["n_regionkey"], how="semi")


def q2(run: Runner) -> Batch:
    """Minimum cost supplier."""
    mins = LAggr(_q2_european_partsupp(), ["ps_partkey"],
                 [("min_cost", "min", Col("ps_supplycost"))])
    part = LSelect(
        LScan("part", ["p_partkey", "p_size", "p_type", "p_mfgr"]),
        (Col("p_size") == 15) & Like(Col("p_type"), "%BRASS"),
    )
    eu = _q2_european_partsupp()
    with_part = LJoin(build=part, probe=eu, build_keys=["p_partkey"],
                      probe_keys=["ps_partkey"],
                      build_payload=["p_mfgr"])
    best = LJoin(build=mins, probe=with_part,
                 build_keys=["ps_partkey", "min_cost"],
                 probe_keys=["ps_partkey", "ps_supplycost"],
                 build_payload=[])
    top = LTopN(best, ["s_acctbal", "n_name", "s_name", "ps_partkey"], 100,
                ascending=[False, True, True, True])
    return run(LProject(top, _ident(
        "s_acctbal", "s_name", "n_name", "ps_partkey", "p_mfgr",
        "s_address", "s_phone", "s_comment")))


# ---------------------------------------------------------------------- Q3

def q3(run: Runner) -> Batch:
    """Shipping priority."""
    date = d("1995-03-15")
    cust = LSelect(LScan("customer", ["c_custkey", "c_mktsegment"]),
                   Col("c_mktsegment") == "BUILDING")
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_custkey", "o_orderdate",
                         "o_shippriority"]),
        Col("o_orderdate") < date)
    li = LSelect(
        LScan("lineitem", ["l_orderkey", "l_extendedprice", "l_discount",
                           "l_shipdate"]),
        Col("l_shipdate") > date)
    co = LJoin(build=cust, probe=orders, build_keys=["c_custkey"],
               probe_keys=["o_custkey"], how="semi")
    col = LJoin(build=co, probe=li, build_keys=["o_orderkey"],
                probe_keys=["l_orderkey"],
                build_payload=["o_orderdate", "o_shippriority"])
    proj = LProject(col, {
        "l_orderkey": Col("l_orderkey"),
        "o_orderdate": Col("o_orderdate"),
        "o_shippriority": Col("o_shippriority"),
        "rev": REVENUE,
    })
    aggr = LAggr(proj, ["l_orderkey", "o_orderdate", "o_shippriority"],
                 [("revenue", "sum", Col("rev"))])
    return run(LTopN(aggr, ["revenue", "o_orderdate"], 10,
                     ascending=[False, True]))


# ---------------------------------------------------------------------- Q4

def q4(run: Runner) -> Batch:
    """Order priority checking."""
    lo, hi = d("1993-07-01"), d("1993-10-01")
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]),
        (Col("o_orderdate") >= lo) & (Col("o_orderdate") < hi))
    late = LSelect(
        LScan("lineitem", ["l_orderkey", "l_commitdate", "l_receiptdate"]),
        Col("l_commitdate") < Col("l_receiptdate"))
    semi = LJoin(build=late, probe=orders, build_keys=["l_orderkey"],
                 probe_keys=["o_orderkey"], how="semi")
    aggr = LAggr(semi, ["o_orderpriority"], [("order_count", "count", None)])
    return run(LSort(aggr, ["o_orderpriority"]))


# ---------------------------------------------------------------------- Q5

def q5(run: Runner) -> Batch:
    """Local supplier volume."""
    lo, hi = d("1994-01-01"), d("1995-01-01")
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        (Col("o_orderdate") >= lo) & (Col("o_orderdate") < hi))
    li = LScan("lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                            "l_discount"])
    lo_j = LJoin(build=orders, probe=li, build_keys=["o_orderkey"],
                 probe_keys=["l_orderkey"], build_payload=["o_custkey"])
    cust = LScan("customer", ["c_custkey", "c_nationkey"])
    loc = LJoin(build=cust, probe=lo_j, build_keys=["c_custkey"],
                probe_keys=["o_custkey"], build_payload=["c_nationkey"])
    supp = LScan("supplier", ["s_suppkey", "s_nationkey"])
    locs = LJoin(build=supp, probe=loc, build_keys=["s_suppkey"],
                 probe_keys=["l_suppkey"], build_payload=["s_nationkey"])
    same = LSelect(locs, Col("c_nationkey") == Col("s_nationkey"))
    nat = LScan("nation", ["n_nationkey", "n_name", "n_regionkey"])
    with_nat = LJoin(build=nat, probe=same, build_keys=["n_nationkey"],
                     probe_keys=["s_nationkey"],
                     build_payload=["n_name", "n_regionkey"])
    reg = LSelect(LScan("region", ["r_regionkey", "r_name"]),
                  Col("r_name") == "ASIA")
    in_asia = LJoin(build=reg, probe=with_nat, build_keys=["r_regionkey"],
                    probe_keys=["n_regionkey"], how="semi")
    proj = LProject(in_asia, {"n_name": Col("n_name"), "rev": REVENUE})
    aggr = LAggr(proj, ["n_name"], [("revenue", "sum", Col("rev"))])
    return run(LSort(aggr, ["revenue"], ascending=[False]))


# ---------------------------------------------------------------------- Q6

def q6(run: Runner) -> Batch:
    """Forecasting revenue change."""
    lo, hi = d("1994-01-01"), d("1995-01-01")
    scan = LScan("lineitem",
                 ["l_shipdate", "l_discount", "l_quantity",
                  "l_extendedprice"])
    sel = LSelect(scan, (Col("l_shipdate") >= lo) & (Col("l_shipdate") < hi)
                  & Between(Col("l_discount"), 0.05 - 1e-9, 0.07 + 1e-9)
                  & (Col("l_quantity") < 24))
    proj = LProject(sel, {"v": Col("l_extendedprice") * Col("l_discount")})
    return run(LAggr(proj, [], [("revenue", "sum", Col("v"))]))


# ---------------------------------------------------------------------- Q7

def q7(run: Runner) -> Batch:
    """Volume shipping between two nations."""
    lo, hi = d("1995-01-01"), d("1996-12-31")
    li = LSelect(
        LScan("lineitem", ["l_orderkey", "l_suppkey", "l_shipdate",
                           "l_extendedprice", "l_discount"]),
        (Col("l_shipdate") >= lo) & (Col("l_shipdate") <= hi))
    orders = LScan("orders", ["o_orderkey", "o_custkey"])
    j1 = LJoin(build=orders, probe=li, build_keys=["o_orderkey"],
               probe_keys=["l_orderkey"], build_payload=["o_custkey"])
    cust = LScan("customer", ["c_custkey", "c_nationkey"])
    j2 = LJoin(build=cust, probe=j1, build_keys=["c_custkey"],
               probe_keys=["o_custkey"], build_payload=["c_nationkey"])
    supp = LScan("supplier", ["s_suppkey", "s_nationkey"])
    j3 = LJoin(build=supp, probe=j2, build_keys=["s_suppkey"],
               probe_keys=["l_suppkey"], build_payload=["s_nationkey"])
    n1 = LProject(LScan("nation", ["n_nationkey", "n_name"]),
                  {"n1_key": Col("n_nationkey"), "supp_nation": Col("n_name")})
    n2 = LProject(LScan("nation", ["n_nationkey", "n_name"]),
                  {"n2_key": Col("n_nationkey"), "cust_nation": Col("n_name")})
    j4 = LJoin(build=n1, probe=j3, build_keys=["n1_key"],
               probe_keys=["s_nationkey"], build_payload=["supp_nation"])
    j5 = LJoin(build=n2, probe=j4, build_keys=["n2_key"],
               probe_keys=["c_nationkey"], build_payload=["cust_nation"])
    pairs = LSelect(j5, (
        ((Col("supp_nation") == "FRANCE") & (Col("cust_nation") == "GERMANY"))
        | ((Col("supp_nation") == "GERMANY") & (Col("cust_nation") == "FRANCE"))
    ))
    proj = LProject(pairs, {
        "supp_nation": Col("supp_nation"),
        "cust_nation": Col("cust_nation"),
        "l_year": ExtractYear(Col("l_shipdate")),
        "volume": REVENUE,
    })
    aggr = LAggr(proj, ["supp_nation", "cust_nation", "l_year"],
                 [("revenue", "sum", Col("volume"))])
    return run(LSort(aggr, ["supp_nation", "cust_nation", "l_year"]))


# ---------------------------------------------------------------------- Q8

def q8(run: Runner) -> Batch:
    """National market share."""
    lo, hi = d("1995-01-01"), d("1996-12-31")
    part = LSelect(LScan("part", ["p_partkey", "p_type"]),
                   Col("p_type") == "ECONOMY ANODIZED STEEL")
    li = LScan("lineitem", ["l_orderkey", "l_partkey", "l_suppkey",
                            "l_extendedprice", "l_discount"])
    j1 = LJoin(build=part, probe=li, build_keys=["p_partkey"],
               probe_keys=["l_partkey"], how="semi")
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        (Col("o_orderdate") >= lo) & (Col("o_orderdate") <= hi))
    j2 = LJoin(build=orders, probe=j1, build_keys=["o_orderkey"],
               probe_keys=["l_orderkey"],
               build_payload=["o_custkey", "o_orderdate"])
    cust = LScan("customer", ["c_custkey", "c_nationkey"])
    j3 = LJoin(build=cust, probe=j2, build_keys=["c_custkey"],
               probe_keys=["o_custkey"], build_payload=["c_nationkey"])
    n1 = LScan("nation", ["n_nationkey", "n_regionkey"])
    j4 = LJoin(build=n1, probe=j3, build_keys=["n_nationkey"],
               probe_keys=["c_nationkey"], build_payload=["n_regionkey"])
    reg = LSelect(LScan("region", ["r_regionkey", "r_name"]),
                  Col("r_name") == "AMERICA")
    j5 = LJoin(build=reg, probe=j4, build_keys=["r_regionkey"],
               probe_keys=["n_regionkey"], how="semi")
    supp = LScan("supplier", ["s_suppkey", "s_nationkey"])
    j6 = LJoin(build=supp, probe=j5, build_keys=["s_suppkey"],
               probe_keys=["l_suppkey"], build_payload=["s_nationkey"])
    n2 = LProject(LScan("nation", ["n_nationkey", "n_name"]),
                  {"n2_key": Col("n_nationkey"), "supp_nation": Col("n_name")})
    j7 = LJoin(build=n2, probe=j6, build_keys=["n2_key"],
               probe_keys=["s_nationkey"], build_payload=["supp_nation"])
    proj = LProject(j7, {
        "o_year": ExtractYear(Col("o_orderdate")),
        "volume": REVENUE,
        "brazil_volume": Case(Col("supp_nation") == "BRAZIL",
                              REVENUE, Const(0.0)),
    })
    aggr = LAggr(proj, ["o_year"], [
        ("sum_brazil", "sum", Col("brazil_volume")),
        ("sum_all", "sum", Col("volume")),
    ])
    share = LProject(aggr, {
        "o_year": Col("o_year"),
        "mkt_share": Col("sum_brazil") / Col("sum_all"),
    })
    return run(LSort(share, ["o_year"]))


# ---------------------------------------------------------------------- Q9

def q9(run: Runner) -> Batch:
    """Product type profit measure."""
    part = LSelect(LScan("part", ["p_partkey", "p_name"]),
                   Like(Col("p_name"), "%green%"))
    li = LScan("lineitem", ["l_orderkey", "l_partkey", "l_suppkey",
                            "l_quantity", "l_extendedprice", "l_discount"])
    j1 = LJoin(build=part, probe=li, build_keys=["p_partkey"],
               probe_keys=["l_partkey"], how="semi")
    ps = LScan("partsupp", ["ps_partkey", "ps_suppkey", "ps_supplycost"])
    j2 = LJoin(build=ps, probe=j1, build_keys=["ps_partkey", "ps_suppkey"],
               probe_keys=["l_partkey", "l_suppkey"],
               build_payload=["ps_supplycost"])
    orders = LScan("orders", ["o_orderkey", "o_orderdate"])
    j3 = LJoin(build=orders, probe=j2, build_keys=["o_orderkey"],
               probe_keys=["l_orderkey"], build_payload=["o_orderdate"])
    supp = LScan("supplier", ["s_suppkey", "s_nationkey"])
    j4 = LJoin(build=supp, probe=j3, build_keys=["s_suppkey"],
               probe_keys=["l_suppkey"], build_payload=["s_nationkey"])
    nat = LScan("nation", ["n_nationkey", "n_name"])
    j5 = LJoin(build=nat, probe=j4, build_keys=["n_nationkey"],
               probe_keys=["s_nationkey"], build_payload=["n_name"])
    proj = LProject(j5, {
        "nation": Col("n_name"),
        "o_year": ExtractYear(Col("o_orderdate")),
        "amount": REVENUE - Col("ps_supplycost") * Col("l_quantity"),
    })
    aggr = LAggr(proj, ["nation", "o_year"],
                 [("sum_profit", "sum", Col("amount"))])
    return run(LSort(aggr, ["nation", "o_year"], ascending=[True, False]))


# ---------------------------------------------------------------------- Q10

def q10(run: Runner) -> Batch:
    """Returned item reporting."""
    lo, hi = d("1993-10-01"), d("1994-01-01")
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        (Col("o_orderdate") >= lo) & (Col("o_orderdate") < hi))
    li = LSelect(
        LScan("lineitem", ["l_orderkey", "l_returnflag",
                           "l_extendedprice", "l_discount"]),
        Col("l_returnflag") == "R")
    j1 = LJoin(build=orders, probe=li, build_keys=["o_orderkey"],
               probe_keys=["l_orderkey"], build_payload=["o_custkey"])
    cust = LScan("customer", ["c_custkey", "c_name", "c_acctbal",
                              "c_phone", "c_nationkey", "c_address",
                              "c_comment"])
    j2 = LJoin(build=cust, probe=j1, build_keys=["c_custkey"],
               probe_keys=["o_custkey"],
               build_payload=["c_name", "c_acctbal", "c_phone",
                              "c_nationkey", "c_address", "c_comment"])
    nat = LScan("nation", ["n_nationkey", "n_name"])
    j3 = LJoin(build=nat, probe=j2, build_keys=["n_nationkey"],
               probe_keys=["c_nationkey"], build_payload=["n_name"])
    proj = LProject(j3, {
        "c_custkey": Col("o_custkey"), "c_name": Col("c_name"),
        "c_acctbal": Col("c_acctbal"), "c_phone": Col("c_phone"),
        "n_name": Col("n_name"), "c_address": Col("c_address"),
        "c_comment": Col("c_comment"), "rev": REVENUE,
    })
    aggr = LAggr(proj, ["c_custkey", "c_name", "c_acctbal", "c_phone",
                        "n_name", "c_address", "c_comment"],
                 [("revenue", "sum", Col("rev"))])
    return run(LTopN(aggr, ["revenue"], 20, ascending=[False]))


# ---------------------------------------------------------------------- Q11

def _q11_german_partsupp():
    ps = LScan("partsupp", ["ps_partkey", "ps_suppkey", "ps_availqty",
                            "ps_supplycost"])
    supp = LScan("supplier", ["s_suppkey", "s_nationkey"])
    j1 = LJoin(build=supp, probe=ps, build_keys=["s_suppkey"],
               probe_keys=["ps_suppkey"], build_payload=["s_nationkey"])
    nat = LSelect(LScan("nation", ["n_nationkey", "n_name"]),
                  Col("n_name") == "GERMANY")
    j2 = LJoin(build=nat, probe=j1, build_keys=["n_nationkey"],
               probe_keys=["s_nationkey"], how="semi")
    return LProject(j2, {
        "ps_partkey": Col("ps_partkey"),
        "value": Col("ps_supplycost") * Col("ps_availqty"),
    })


def q11(run: Runner) -> Batch:
    """Important stock identification (scalar subquery -> two plans)."""
    total = run(LAggr(_q11_german_partsupp(), [],
                      [("total", "sum", Col("value"))]))
    threshold = float(total.columns["total"][0]) * 0.0001
    per_part = LAggr(_q11_german_partsupp(), ["ps_partkey"],
                     [("value", "sum", Col("value"))])
    big = LSelect(per_part, Col("value") > threshold)
    return run(LSort(big, ["value"], ascending=[False]))


# ---------------------------------------------------------------------- Q12

def q12(run: Runner) -> Batch:
    """Shipping modes and order priority."""
    lo, hi = d("1994-01-01"), d("1995-01-01")
    li = LSelect(
        LScan("lineitem", ["l_orderkey", "l_shipmode", "l_commitdate",
                           "l_receiptdate", "l_shipdate"]),
        InList(Col("l_shipmode"), ["MAIL", "SHIP"])
        & (Col("l_commitdate") < Col("l_receiptdate"))
        & (Col("l_shipdate") < Col("l_commitdate"))
        & (Col("l_receiptdate") >= lo) & (Col("l_receiptdate") < hi))
    orders = LScan("orders", ["o_orderkey", "o_orderpriority"])
    j = LJoin(build=orders, probe=li, build_keys=["o_orderkey"],
              probe_keys=["l_orderkey"], build_payload=["o_orderpriority"])
    proj = LProject(j, {
        "l_shipmode": Col("l_shipmode"),
        "high": Case(InList(Col("o_orderpriority"), ["1-URGENT", "2-HIGH"]),
                     Const(1.0), Const(0.0)),
        "low": Case(InList(Col("o_orderpriority"), ["1-URGENT", "2-HIGH"]),
                    Const(0.0), Const(1.0)),
    })
    aggr = LAggr(proj, ["l_shipmode"], [
        ("high_line_count", "sum", Col("high")),
        ("low_line_count", "sum", Col("low")),
    ])
    return run(LSort(aggr, ["l_shipmode"]))


# ---------------------------------------------------------------------- Q13

def q13(run: Runner) -> Batch:
    """Customer distribution (left join + double aggregation)."""
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_custkey", "o_comment"]),
        Like(Col("o_comment"), "%special%requests%", negate=True))
    cust = LScan("customer", ["c_custkey"])
    left = LJoin(build=orders, probe=cust, build_keys=["o_custkey"],
                 probe_keys=["c_custkey"], how="left", build_payload=[])
    per_cust = LProject(left, {
        "c_custkey": Col("c_custkey"),
        "matched": Case(Col("__matched"), Const(1.0), Const(0.0)),
    })
    counts = LAggr(per_cust, ["c_custkey"],
                   [("c_count", "sum", Col("matched"))])
    dist = LAggr(counts, ["c_count"], [("custdist", "count", None)])
    return run(LSort(dist, ["custdist", "c_count"], ascending=[False, False]))


# ---------------------------------------------------------------------- Q14

def q14(run: Runner) -> Batch:
    """Promotion effect."""
    lo, hi = d("1995-09-01"), d("1995-10-01")
    li = LSelect(
        LScan("lineitem", ["l_partkey", "l_shipdate", "l_extendedprice",
                           "l_discount"]),
        (Col("l_shipdate") >= lo) & (Col("l_shipdate") < hi))
    part = LScan("part", ["p_partkey", "p_type"])
    j = LJoin(build=part, probe=li, build_keys=["p_partkey"],
              probe_keys=["l_partkey"], build_payload=["p_type"])
    proj = LProject(j, {
        "promo": Case(Like(Col("p_type"), "PROMO%"), REVENUE, Const(0.0)),
        "total": REVENUE,
    })
    aggr = LAggr(proj, [], [
        ("promo_sum", "sum", Col("promo")),
        ("total_sum", "sum", Col("total")),
    ])
    return run(LProject(aggr, {
        "promo_revenue": Const(100.0) * Col("promo_sum") / Col("total_sum"),
    }))


# ---------------------------------------------------------------------- Q15

def _q15_revenue():
    lo, hi = d("1996-01-01"), d("1996-04-01")
    li = LSelect(
        LScan("lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice",
                           "l_discount"]),
        (Col("l_shipdate") >= lo) & (Col("l_shipdate") < hi))
    proj = LProject(li, {"l_suppkey": Col("l_suppkey"), "rev": REVENUE})
    return LAggr(proj, ["l_suppkey"], [("total_revenue", "sum", Col("rev"))])


def q15(run: Runner) -> Batch:
    """Top supplier (view + scalar max -> two plans)."""
    revenue = run(_q15_revenue())
    if revenue.n == 0:
        return revenue
    max_rev = float(np.max(revenue.columns["total_revenue"]))
    best = LSelect(_q15_revenue(),
                   Col("total_revenue") >= max_rev - 1e-6)
    supp = LScan("supplier", ["s_suppkey", "s_name", "s_address", "s_phone"])
    j = LJoin(build=best, probe=supp, build_keys=["l_suppkey"],
              probe_keys=["s_suppkey"], build_payload=["total_revenue"])
    return run(LSort(j, ["s_suppkey"]))


# ---------------------------------------------------------------------- Q16

def q16(run: Runner) -> Batch:
    """Parts/supplier relationship."""
    part = LSelect(
        LScan("part", ["p_partkey", "p_brand", "p_type", "p_size"]),
        (Col("p_brand") != "Brand#45")
        & Like(Col("p_type"), "MEDIUM POLISHED%", negate=True)
        & InList(Col("p_size"), [49, 14, 23, 45, 19, 3, 36, 9]))
    ps = LScan("partsupp", ["ps_partkey", "ps_suppkey"])
    j1 = LJoin(build=part, probe=ps, build_keys=["p_partkey"],
               probe_keys=["ps_partkey"],
               build_payload=["p_brand", "p_type", "p_size"])
    complaints = LSelect(
        LScan("supplier", ["s_suppkey", "s_comment"]),
        Like(Col("s_comment"), "%Customer%Complaints%"))
    cleaned = LJoin(build=complaints, probe=j1, build_keys=["s_suppkey"],
                    probe_keys=["ps_suppkey"], how="anti")
    aggr = LAggr(cleaned, ["p_brand", "p_type", "p_size"],
                 [("supplier_cnt", "count_distinct", Col("ps_suppkey"))])
    return run(LSort(aggr, ["supplier_cnt", "p_brand", "p_type", "p_size"],
                     ascending=[False, True, True, True]))


# ---------------------------------------------------------------------- Q17

def q17(run: Runner) -> Batch:
    """Small-quantity-order revenue."""
    part = LSelect(
        LScan("part", ["p_partkey", "p_brand", "p_container"]),
        (Col("p_brand") == "Brand#23") & (Col("p_container") == "MED BOX"))
    li = LScan("lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    targeted = LJoin(build=part, probe=li, build_keys=["p_partkey"],
                     probe_keys=["l_partkey"], how="semi")
    avg_qty = LAggr(targeted, ["l_partkey"],
                    [("avg_qty", "avg", Col("l_quantity"))])
    with_avg = LJoin(build=avg_qty, probe=targeted,
                     build_keys=["l_partkey"], probe_keys=["l_partkey"],
                     build_payload=["avg_qty"])
    small = LSelect(with_avg,
                    Col("l_quantity") < Const(0.2) * Col("avg_qty"))
    total = LAggr(small, [], [("sum_price", "sum", Col("l_extendedprice"))])
    return run(LProject(total,
                        {"avg_yearly": Col("sum_price") / Const(7.0)}))


# ---------------------------------------------------------------------- Q18

def q18(run: Runner) -> Batch:
    """Large volume customers."""
    li = LScan("lineitem", ["l_orderkey", "l_quantity"])
    sums = LAggr(li, ["l_orderkey"], [("sum_qty", "sum", Col("l_quantity"))])
    big = LSelect(sums, Col("sum_qty") > 300)
    orders = LScan("orders", ["o_orderkey", "o_custkey", "o_orderdate",
                              "o_totalprice"])
    j1 = LJoin(build=big, probe=orders, build_keys=["l_orderkey"],
               probe_keys=["o_orderkey"], build_payload=["sum_qty"])
    cust = LScan("customer", ["c_custkey", "c_name"])
    j2 = LJoin(build=cust, probe=j1, build_keys=["c_custkey"],
               probe_keys=["o_custkey"], build_payload=["c_name"])
    return run(LTopN(j2, ["o_totalprice", "o_orderdate"], 100,
                     ascending=[False, True]))


# ---------------------------------------------------------------------- Q19

def q19(run: Runner) -> Batch:
    """Discounted revenue (three disjunctive branches)."""
    li = LSelect(
        LScan("lineitem", ["l_partkey", "l_quantity", "l_extendedprice",
                           "l_discount", "l_shipmode", "l_shipinstruct"]),
        InList(Col("l_shipmode"), ["AIR", "REG AIR"])
        & (Col("l_shipinstruct") == "DELIVER IN PERSON"))
    part = LScan("part", ["p_partkey", "p_brand", "p_container", "p_size"])
    j = LJoin(build=part, probe=li, build_keys=["p_partkey"],
              probe_keys=["l_partkey"],
              build_payload=["p_brand", "p_container", "p_size"])

    def branch(brand, containers, qty_lo, qty_hi, size_hi):
        return ((Col("p_brand") == brand)
                & InList(Col("p_container"), containers)
                & Between(Col("l_quantity"), qty_lo, qty_hi)
                & Between(Col("p_size"), 1, size_hi))

    sel = LSelect(j, branch("Brand#12", ["SM CASE", "SM BOX", "SM PACK",
                                         "SM PKG"], 1, 11, 5)
                  | branch("Brand#23", ["MED BAG", "MED BOX", "MED PKG",
                                        "MED PACK"], 10, 20, 10)
                  | branch("Brand#34", ["LG CASE", "LG BOX", "LG PACK",
                                        "LG PKG"], 20, 30, 15))
    proj = LProject(sel, {"rev": REVENUE})
    return run(LAggr(proj, [], [("revenue", "sum", Col("rev"))]))


# ---------------------------------------------------------------------- Q20

def q20(run: Runner) -> Batch:
    """Potential part promotion."""
    lo, hi = d("1994-01-01"), d("1995-01-01")
    li = LSelect(
        LScan("lineitem", ["l_partkey", "l_suppkey", "l_quantity",
                           "l_shipdate"]),
        (Col("l_shipdate") >= lo) & (Col("l_shipdate") < hi))
    shipped = LAggr(li, ["l_partkey", "l_suppkey"],
                    [("sum_qty", "sum", Col("l_quantity"))])
    forest = LSelect(LScan("part", ["p_partkey", "p_name"]),
                     Like(Col("p_name"), "forest%"))
    ps = LScan("partsupp", ["ps_partkey", "ps_suppkey", "ps_availqty"])
    ps_forest = LJoin(build=forest, probe=ps, build_keys=["p_partkey"],
                      probe_keys=["ps_partkey"], how="semi")
    with_qty = LJoin(build=shipped, probe=ps_forest,
                     build_keys=["l_partkey", "l_suppkey"],
                     probe_keys=["ps_partkey", "ps_suppkey"],
                     build_payload=["sum_qty"])
    excess = LSelect(with_qty,
                     Col("ps_availqty") > Const(0.5) * Col("sum_qty"))
    supp = LScan("supplier", ["s_suppkey", "s_name", "s_address",
                              "s_nationkey"])
    candidates = LJoin(build=excess, probe=supp, build_keys=["ps_suppkey"],
                       probe_keys=["s_suppkey"], how="semi")
    nat = LSelect(LScan("nation", ["n_nationkey", "n_name"]),
                  Col("n_name") == "CANADA")
    canadian = LJoin(build=nat, probe=candidates,
                     build_keys=["n_nationkey"], probe_keys=["s_nationkey"],
                     how="semi")
    proj = LProject(canadian, _ident("s_name", "s_address"))
    return run(LSort(proj, ["s_name"]))


# ---------------------------------------------------------------------- Q21

def q21(run: Runner) -> Batch:
    """Suppliers who kept orders waiting."""
    li_all = LScan("lineitem", ["l_orderkey", "l_suppkey"])
    n_supp = LAggr(li_all, ["l_orderkey"],
                   [("n_supp", "count_distinct", Col("l_suppkey"))])
    late = LSelect(
        LScan("lineitem", ["l_orderkey", "l_suppkey", "l_commitdate",
                           "l_receiptdate"]),
        Col("l_receiptdate") > Col("l_commitdate"))
    n_late = LAggr(late, ["l_orderkey"],
                   [("n_late", "count_distinct", Col("l_suppkey"))])
    orders_f = LSelect(LScan("orders", ["o_orderkey", "o_orderstatus"]),
                       Col("o_orderstatus") == "F")
    cand = LJoin(build=orders_f, probe=late, build_keys=["o_orderkey"],
                 probe_keys=["l_orderkey"], how="semi")
    supp = LScan("supplier", ["s_suppkey", "s_name", "s_nationkey"])
    cand2 = LJoin(build=supp, probe=cand, build_keys=["s_suppkey"],
                  probe_keys=["l_suppkey"],
                  build_payload=["s_name", "s_nationkey"])
    nat = LSelect(LScan("nation", ["n_nationkey", "n_name"]),
                  Col("n_name") == "SAUDI ARABIA")
    cand3 = LJoin(build=nat, probe=cand2, build_keys=["n_nationkey"],
                  probe_keys=["s_nationkey"], how="semi")
    with_n = LJoin(build=n_supp, probe=cand3, build_keys=["l_orderkey"],
                   probe_keys=["l_orderkey"], build_payload=["n_supp"])
    with_late = LJoin(build=n_late, probe=with_n, build_keys=["l_orderkey"],
                      probe_keys=["l_orderkey"], build_payload=["n_late"])
    waiting = LSelect(with_late,
                      (Col("n_supp") >= 2) & (Col("n_late") == 1))
    aggr = LAggr(waiting, ["s_name"], [("numwait", "count", None)])
    return run(LTopN(aggr, ["numwait", "s_name"], 100,
                     ascending=[False, True]))


# ---------------------------------------------------------------------- Q22

def q22(run: Runner) -> Batch:
    """Global sales opportunity."""
    codes = ["13", "31", "23", "29", "30", "18", "17"]
    base = LProject(
        LScan("customer", ["c_custkey", "c_phone", "c_acctbal"]),
        {"c_custkey": Col("c_custkey"), "c_acctbal": Col("c_acctbal"),
         "cntrycode": Substr(Col("c_phone"), 1, 2)})
    in_codes = LSelect(base, InList(Col("cntrycode"), codes))
    avg_bal = run(LAggr(LSelect(in_codes, Col("c_acctbal") > 0.0), [],
                        [("avg_bal", "avg", Col("c_acctbal"))]))
    threshold = float(avg_bal.columns["avg_bal"][0])
    rich = LSelect(in_codes, Col("c_acctbal") > threshold)
    orders = LScan("orders", ["o_custkey"])
    no_orders = LJoin(build=orders, probe=rich, build_keys=["o_custkey"],
                      probe_keys=["c_custkey"], how="anti")
    aggr = LAggr(no_orders, ["cntrycode"], [
        ("numcust", "count", None),
        ("totacctbal", "sum", Col("c_acctbal")),
    ])
    return run(LSort(aggr, ["cntrycode"]))


QUERIES: Dict[int, Callable[[Runner], Batch]] = {
    1: q1, 2: q2, 3: q3, 4: q4, 5: q5, 6: q6, 7: q7, 8: q8, 9: q9, 10: q10,
    11: q11, 12: q12, 13: q13, 14: q14, 15: q15, 16: q16, 17: q17, 18: q18,
    19: q19, 20: q20, 21: q21, 22: q22,
}


def run_query(runner: Runner, number: int) -> Batch:
    """Execute TPC-H query ``number`` through ``runner``."""
    return QUERIES[number](runner)
