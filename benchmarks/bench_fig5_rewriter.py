"""Section 5 / Figure 5: Parallel Rewriter rule ablation.

The example query (top-10 suppliers by qualifying lineitem count, joining
lineitem, orders and the replicated supplier table) runs with rewrite
rules toggled, mirroring the paper's measurement on TPC-H SF-500:

    all rules on            5.02s
    no partial aggregation  5.64s
    no replicated build     5.67s
    no local join          25.51s   <- the dominant effect (~5x)
    no rules               26.14s

We report simulated parallel seconds and DXchg network bytes per
configuration; the expected *shape* is that disabling the local-join rule
dominates (data reshuffles instead of joining in place).
"""

import pytest

from benchmarks.conftest import SCALE_FACTOR, write_report
from repro.common.types import date_to_days as d
from repro.engine.expressions import Between, Col, Const
from repro.mpp.logical import LAggr, LJoin, LProject, LScan, LSelect, LTopN
from repro.mpp.rewriter import RewriterFlags

PAPER_SECONDS = {
    "all rules": 5.02,
    "no partial aggregation": 5.64,
    "no replicated build": 5.67,
    "no local join": 25.51,
    "no rules": 26.14,
}


def figure5_query():
    lo, hi = d("1995-03-05"), d("1997-03-05")
    li = LSelect(LScan("lineitem", ["l_orderkey", "l_suppkey",
                                    "l_discount"]),
                 Col("l_discount") > 0.03)
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_orderdate"]),
        Between(Col("o_orderdate"), lo, hi))
    joined = LJoin(build=orders, probe=li, build_keys=["o_orderkey"],
                   probe_keys=["l_orderkey"], build_payload=[])
    supp = LScan("supplier", ["s_suppkey", "s_name"])
    with_supp = LJoin(build=supp, probe=joined, build_keys=["s_suppkey"],
                      probe_keys=["l_suppkey"],
                      build_payload=["s_suppkey", "s_name"])
    aggr = LAggr(with_supp, ["s_suppkey", "s_name"],
                 [("l_count", "count", None)])
    return LTopN(aggr, ["l_count"], 10)


CONFIGS = {
    "all rules": RewriterFlags(),
    "no partial aggregation": RewriterFlags(partial_aggr=False),
    "no replicated build": RewriterFlags(replicate_build=False),
    "no local join": RewriterFlags(local_join=False),
    "no rules": RewriterFlags(local_join=False, replicate_build=False,
                              partial_aggr=False, merge_join=False),
}


def test_fig5_rule_ablation(vectorh, benchmark):
    plan = figure5_query()
    reference = None
    measured = {}
    for name, flags in CONFIGS.items():
        result = vectorh.query(plan, flags=flags)
        rows = sorted(result.batch.columns["l_count"].tolist())
        if reference is None:
            reference = rows
        else:
            assert rows == reference  # every plan computes the same answer
        # a slow fabric (100MB/s) keeps network visible at laptop scale
        measured[name] = (result.simulated_total_seconds(1e8),
                          result.network_bytes)

    lines = [f"SEC 5 / FIG 5: rewrite-rule ablation -- SF={SCALE_FACTOR}",
             f"{'configuration':>26} {'sim seconds':>12} {'net bytes':>12} "
             f"{'paper (s)':>10}"]
    for name in CONFIGS:
        sim, net = measured[name]
        lines.append(f"{name:>26} {sim:>12.4f} {net:>12,} "
                     f"{PAPER_SECONDS[name]:>10.2f}")
    base_net = measured["all rules"][1]
    lines.append(
        f"\nno-local-join moves {measured['no local join'][1] / max(base_net, 1):.1f}x "
        f"more bytes than the full rewriter (paper: 5.1x slower)"
    )
    write_report("fig5_rewriter.txt", "\n".join(lines))

    # shape: local join is the dominant rule, by network volume
    assert measured["no local join"][1] > 3 * max(base_net, 1)
    assert measured["no rules"][1] >= measured["no local join"][1]
    assert measured["no partial aggregation"][1] >= base_net
    benchmark(lambda: vectorh.query(plan).batch)


def test_fig5_plan_shape(vectorh, benchmark):
    """With all rules on, the distributed plan has the Figure-5 shape:
    exchanges only above the partial aggregation."""
    text = vectorh.explain(figure5_query())
    before_exchange, _, below = text.partition("DXchg")
    assert "HashJoin" not in before_exchange  # joins are below the exchange
    assert "MScan[lineitem]" in below
    assert "Aggr(partial)" in text and "Aggr(final)" in text
    write_report("fig5_plan.txt", text)
    benchmark(vectorh.explain, figure5_query())
