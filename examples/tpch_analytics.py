"""TPC-H analytics: the paper's evaluation workload, end to end.

Generates a small TPC-H database with the paper's physical design
(section 8 DDL: clustering, co-located partitioning, replicated small
tables), runs a selection of the 22 queries on the vectorized MPP engine,
shows a distributed plan and its Figure-5 rewrite rules, compares
against the tuple-at-a-time Hive-like baseline, and sends one query's SQL
text through the server frontend as a client would.

    python examples/tpch_analytics.py [scale_factor]
"""

import sys
import time

from repro.baselines import CompetitorSystem
from repro.common.config import Config
from repro.common.types import date_to_days as d
from repro.cluster import VectorHCluster
from repro.engine.expressions import Between, Col
from repro.mpp.logical import LAggr, LJoin, LScan, LSelect, LTopN
from repro.tpch import QUERIES, generate_tpch, tpch_schemas
from repro.tpch.queries import SQL
from repro.tpch.schema import LOAD_ORDER


def figure5_query():
    """The paper's section-5 example: top suppliers by lineitem count."""
    li = LSelect(LScan("lineitem", ["l_orderkey", "l_suppkey",
                                    "l_discount"]),
                 Col("l_discount") > 0.03)
    orders = LSelect(
        LScan("orders", ["o_orderkey", "o_orderdate"]),
        Between(Col("o_orderdate"), d("1995-03-05"), d("1997-03-05")))
    joined = LJoin(build=orders, probe=li, build_keys=["o_orderkey"],
                   probe_keys=["l_orderkey"], build_payload=[])
    supp = LScan("supplier", ["s_suppkey", "s_name"])
    with_supp = LJoin(build=supp, probe=joined, build_keys=["s_suppkey"],
                      probe_keys=["l_suppkey"],
                      build_payload=["s_suppkey", "s_name"])
    aggr = LAggr(with_supp, ["s_suppkey", "s_name"],
                 [("l_count", "count", None)])
    return LTopN(aggr, ["l_count"], 10)


def main(scale_factor: float = 0.01):
    print(f"generating TPC-H SF={scale_factor} ...")
    data = generate_tpch(scale_factor)

    config = Config()
    config.block_size = 32 * 1024
    cluster = VectorHCluster(n_nodes=6, config=config)
    schemas = tpch_schemas(n_partitions=12)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, data[name])
    rows = sum(len(v[list(v)[0]]) for v in data.values())
    print(f"loaded {rows:,} rows across {len(LOAD_ORDER)} tables on "
          f"{len(cluster.workers)} workers\n")

    # The Figure-5 plan: communication only above the partial aggregation.
    print("distributed plan for the paper's example query:")
    print(cluster.explain(figure5_query()))
    print()

    hive = CompetitorSystem("hive", workers=6, rows_per_group=4096)
    hive.load(data)

    print(f"{'query':>6} {'rows':>6} {'vectorh (s)':>12} "
          f"{'hive-like (s)':>14} {'speedup':>8}")
    for q in (1, 3, 5, 6, 10, 14, 19):
        t0 = time.perf_counter()
        batch = QUERIES[q](lambda plan: cluster.query(plan).batch)
        vh = time.perf_counter() - t0
        t0 = time.perf_counter()
        QUERIES[q](hive.runner)
        hv = time.perf_counter() - t0
        print(f"Q{q:>5} {batch.n:>6} {vh:>12.3f} {hv:>14.3f} "
              f"{hv / vh:>7.1f}x")

    q1 = QUERIES[1](lambda plan: cluster.query(plan).batch)
    print("\nQ1 pricing summary:")
    for i in range(q1.n):
        print(f"  {q1.columns['l_returnflag'][i]} "
              f"{q1.columns['l_linestatus'][i]}  "
              f"qty={q1.columns['sum_qty'][i]:>12.0f}  "
              f"orders={int(q1.columns['count_order'][i]):>8}")

    # the queries are SQL text: a client sending Q3's text gets the rows
    # QUERIES[3] gets, in the same columns
    via_server = cluster.serve().connect().simple_query(SQL[3])
    direct = QUERIES[3](lambda plan: cluster.query(plan).batch)

    def rows(batch):
        return sorted(zip(*(col.tolist() for col in batch.columns.values())))

    assert via_server.column_names == direct.column_names
    assert rows(via_server) == rows(direct)
    print(f"\nQ3 as SQL text through the server: {via_server.n} rows in "
          f"{', '.join(via_server.column_names)} -- what QUERIES[3] returns")


if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    main(sf)
