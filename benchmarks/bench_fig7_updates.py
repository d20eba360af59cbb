"""Figure 7 (bottom): impact of updates -- RF1/RF2 then rerun the queries.

Paper measurement: after the TPC-H refresh functions, Hive's delta tables
must be merged *by key* into every subsequent scan, making the query set
38% slower (GeoDiff 138.2%); VectorH's positional PDT merge leaves query
performance unaffected (GeoDiff 102.8%, within noise). RF execution
itself: VectorH RF1=17.8s RF2=8.4s vs Hive RF1=34s RF2=112s.

We rebuild both systems, measure the geometric mean of the 22 queries
before and after RF1+RF2, and report GeoDiff = after/before.
"""

import math
import time

import pytest

from benchmarks.conftest import (
    N_PARTITIONS, N_WORKERS, SCALE_FACTOR, bench_config, write_report,
)
from repro.baselines import CompetitorSystem
from repro.cluster import VectorHCluster
from repro.tpch import QUERIES, refresh_rf1, refresh_rf2, tpch_schemas
from repro.tpch.refresh import make_rf1_batch
from repro.tpch.schema import LOAD_ORDER

#: 2% refresh at laptop scale so the delta structures are non-trivial
REFRESH_FRACTION = 0.02


def geo_mean(values):
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values)
                    / len(values))


def run_all_vectorh(cluster, repeats: int = 3):
    """Best-of-N per query: the sub-10ms times are noise-sensitive."""
    times = []
    for q in sorted(QUERIES):
        best = None
        for _ in range(repeats):
            seconds = 0.0

            def runner(plan):
                nonlocal seconds
                result = cluster.query(plan)
                seconds += result.simulated_total_seconds()
                return result.batch

            QUERIES[q](runner)
            best = seconds if best is None else min(best, seconds)
        times.append(best)
    return times


def run_all_hive(system, repeats: int = 2):
    times = []
    for q in sorted(QUERIES):
        best = None
        for _ in range(repeats):
            seconds = 0.0

            def runner(plan):
                nonlocal seconds
                batch = system.runner(plan)
                seconds += system.simulated_seconds()
                return batch

            QUERIES[q](runner)
            best = seconds if best is None else min(best, seconds)
        times.append(best)
    return times


def test_fig7_update_impact(tpch_data, benchmark):
    # fresh systems (updates mutate state; do not share session fixtures)
    cluster = VectorHCluster(n_nodes=N_WORKERS, config=bench_config())
    schemas = tpch_schemas(n_partitions=N_PARTITIONS)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    hive = CompetitorSystem("hive", workers=N_WORKERS,
                            rows_per_group=2048, config=bench_config())
    hive.load(tpch_data)

    vh_before = run_all_vectorh(cluster)
    hive_before = run_all_hive(hive)

    # --- VectorH refreshes (through PDTs) --------------------------------
    wal0, commits0 = _wal_bytes(cluster), cluster.txn.commits
    t0 = time.perf_counter()
    n_inserted = refresh_rf1(cluster, fraction=REFRESH_FRACTION)
    vh_rf1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    n_deleted = refresh_rf2(cluster, fraction=REFRESH_FRACTION)
    vh_rf2 = time.perf_counter() - t0
    n_commits = max(cluster.txn.commits - commits0, 1)
    wal_per_commit = {kind: (n - wal0.get(kind, 0)) / n_commits
                      for kind, n in sorted(_wal_bytes(cluster).items())}

    # --- Hive refreshes (delta tables, merged by key at scan time) -------
    existing = tpch_data["orders"]["o_orderkey"]
    new_orders, new_lines = make_rf1_batch(
        existing, n_inserted,
        len(tpch_data["customer"]["c_custkey"]),
        len(tpch_data["part"]["p_partkey"]),
        len(tpch_data["supplier"]["s_suppkey"]),
    )
    t0 = time.perf_counter()
    order_rows = [dict(zip(new_orders, values))
                  for values in zip(*new_orders.values())]
    line_rows = [dict(zip(new_lines, values))
                 for values in zip(*new_lines.values())]
    hive.runner.delta_insert("orders", order_rows)
    hive.runner.delta_insert("lineitem", line_rows)
    hive_rf1 = time.perf_counter() - t0 + 2 * hive.profile.stage_overhead
    import numpy as np
    rng = np.random.default_rng(8)
    victims = rng.choice(existing, n_deleted, replace=False)
    t0 = time.perf_counter()
    hive.runner.delta_delete("orders", [(int(k),) for k in victims])
    victim_set = set(victims.tolist())
    li = tpch_data["lineitem"]
    doomed = [(int(ok), int(ln)) for ok, ln
              in zip(li["l_orderkey"], li["l_linenumber"])
              if int(ok) in victim_set]
    hive.runner.delta_delete("lineitem", doomed)
    hive_rf2 = time.perf_counter() - t0 + 2 * hive.profile.stage_overhead

    vh_after = run_all_vectorh(cluster)
    hive_after = run_all_hive(hive)

    vh_diff = geo_mean(vh_after) / geo_mean(vh_before)
    hive_diff = geo_mean(hive_after) / geo_mean(hive_before)

    # The mechanism behind the paper's GeoDiff lives in the scans: measure
    # the lineitem full-scan slowdown directly for both systems.
    vh_scan = _vh_scan_ratio(cluster)
    hive_scan = _hive_scan_ratio(hive, tpch_data)

    lines = [
        f"FIG 7 (bottom): update impact -- SF={SCALE_FACTOR}, "
        f"refresh fraction {REFRESH_FRACTION:.1%}",
        f"{'':>10} {'RF1 (s)':>9} {'RF2 (s)':>9} {'GeoDiff':>9} "
        f"{'paper GeoDiff':>14} {'scan slowdown':>14}",
        f"{'vectorh':>10} {vh_rf1:>9.3f} {vh_rf2:>9.3f} "
        f"{vh_diff:>8.1%} {'102.8%':>14} {vh_scan:>13.2f}x",
        f"{'hive':>10} {hive_rf1:>9.3f} {hive_rf2:>9.3f} "
        f"{hive_diff:>8.1%} {'138.2%':>14} {hive_scan:>13.2f}x",
        f"vectorh RF1+RF2 WAL bytes per commit ({n_commits} commits): "
        + ", ".join(f"{kind} {n:,.0f}"
                    for kind, n in wal_per_commit.items() if n),
    ]
    write_report("fig7_updates.txt", "\n".join(lines))

    # Shape: positional PDT merging keeps the raw scans close to their
    # pre-update cost, while Hive's key-based delta merge makes every scan
    # dramatically slower. Scan ratios come from tight best-of-5 loops and
    # are robust to machine load; the 22-query GeoDiffs above are
    # informational (millisecond query times are load-sensitive).
    assert vh_scan < 5.0
    assert hive_scan > 1.5
    assert hive_scan > vh_scan
    assert vh_diff < 2.0  # sanity only
    assert hive_diff > 1.0

    benchmark(lambda: QUERIES[1](
        lambda plan: cluster.query(plan).batch))


def _wal_bytes(cluster) -> dict:
    """``wal_appended_bytes_total`` so far, by WAL record kind."""
    family = cluster.registry.get("wal_appended_bytes_total")
    return {kind: n for (kind,), n in family.copy().items()}


def _vh_scan_ratio(cluster, repeats: int = 5) -> float:
    """Post-update vs clean lineitem scan time on the VectorH side.

    The clean reference comes from re-propagating a copy is expensive;
    instead compare against scanning the stable image only (PDTs emptied
    by measuring through a fresh no-op transaction is not possible), so we
    use the stable-only read path as the 1.0x baseline.
    """
    import time as _t
    stored = cluster.tables["lineitem"]

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = _t.perf_counter()
            fn()
            times.append(_t.perf_counter() - t0)
        return min(times)

    def merged_scan():
        for pid in range(stored.n_partitions):
            stored.scan_partition(pid, ["l_quantity"],
                                  reader=cluster.responsible("lineitem", pid),
                                  pool=cluster.pool_of(
                                      cluster.responsible("lineitem", pid)))

    def stable_scan():
        for pid in range(stored.n_partitions):
            stored.partitions[pid].read_column(
                "l_quantity",
                reader=cluster.responsible("lineitem", pid),
                pool=cluster.pool_of(cluster.responsible("lineitem", pid)))

    return best(merged_scan) / max(best(stable_scan), 1e-9)


def _hive_scan_ratio(hive, tpch_data, repeats: int = 5) -> float:
    """Post-update vs clean lineitem scan time on the Hive side."""
    import time as _t
    from repro.mpp.logical import LScan
    plan = LScan("lineitem", ["l_quantity"])

    def best():
        times = []
        for _ in range(repeats):
            t0 = _t.perf_counter()
            hive.runner(plan)
            times.append(hive.runner.last_stats.scan_seconds)
        return min(times)

    with_deltas = best()
    saved = hive.runner.deltas
    hive.runner.deltas = {}
    clean = best()
    hive.runner.deltas = saved
    return with_deltas / max(clean, 1e-9)
