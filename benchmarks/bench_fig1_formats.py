"""Figure 1: storage-format micro-benchmarks.

``SELECT max(l_linenumber) FROM lineitem WHERE l_shipdate < X`` over a
lineitem table **sorted on l_shipdate**, varying X over selectivities
{10%, 30%, 60%, 90%}:

  (a) hot query time  -- VectorH's vectorized scan vs value-at-a-time
      ORC-like and Parquet-like readers (and Parquet without MinMax, the
      Impala configuration);
  (b) data read       -- bytes touched after each format's flavour of
      MinMax skipping;
  (c) compressed size -- per-column footprint of the three formats.

Expected shape (paper): VectorH fastest at every selectivity, reads the
least data (ORC skips CPU but not IO; Parquet's stats force block reads;
Impala reads everything), and compresses ~2x better.
"""

import numpy as np
import pytest

from benchmarks.conftest import SCALE_FACTOR, bench_config, write_report
from repro.baselines.formats import OrcLikeTable, ParquetLikeTable
from repro.common.config import Config
from repro.hdfs import HdfsCluster
from repro.storage import BufferPool, Column, StoredTable, TableSchema
from repro.tpch import generate_tpch
from repro.tpch.schema import tpch_schemas

SELECTIVITIES = [0.1, 0.3, 0.6, 0.9]


@pytest.fixture(scope="module")
def env():
    data = generate_tpch(SCALE_FACTOR, seed=19920101)
    li = data["lineitem"]
    order = np.argsort(li["l_shipdate"], kind="stable")
    sorted_li = {k: v[order] for k, v in li.items()}

    config = bench_config()
    hdfs = HdfsCluster([f"n{i}" for i in range(3)], config)

    schema = tpch_schemas()["lineitem"]
    vh_schema = TableSchema("lineitem_sorted", schema.columns,
                            clustered_on=("l_shipdate",))
    vectorh = StoredTable(hdfs, "/fig1", vh_schema, config)
    vectorh.bulk_load(sorted_li)

    rows_per_group = max(512, int(len(order) / 32))
    orc = OrcLikeTable(hdfs, "/fig1/li.orc", rows_per_group=rows_per_group)
    orc.write(sorted_li)
    parquet = ParquetLikeTable(hdfs, "/fig1/li.parquet",
                               rows_per_group=rows_per_group)
    parquet.write(sorted_li)
    noskip = ParquetLikeTable(hdfs, "/fig1/li.parquet-noskip",
                              rows_per_group=rows_per_group,
                              use_minmax=False)
    noskip.write(sorted_li)

    dates = sorted_li["l_shipdate"]
    cutoffs = {s: int(dates[min(len(dates) - 1, int(s * len(dates)))])
               for s in SELECTIVITIES}
    return {
        "hdfs": hdfs, "vectorh": vectorh, "orc": orc, "parquet": parquet,
        "noskip": noskip, "cutoffs": cutoffs, "sorted_li": sorted_li,
    }


def _vectorh_query(env, cutoff, pool):
    res = env["vectorh"].scan_partition(
        0, ["l_linenumber", "l_shipdate"],
        predicates=[("l_shipdate", "<", cutoff)], reader="n0", pool=pool,
    )
    mask = res.columns["l_shipdate"] < cutoff
    values = res.columns["l_linenumber"][mask]
    return int(values.max()) if len(values) else 0


def _format_query(table, cutoff):
    best = 0
    for row in table.scan_rows(["l_linenumber", "l_shipdate"],
                               [("l_shipdate", "<", cutoff)]):
        if row["l_shipdate"] < cutoff and row["l_linenumber"] > best:
            best = row["l_linenumber"]
    return best


def test_fig1a_query_time(env, benchmark):
    """Fig 1a: hot query time per selectivity, per format."""
    import time
    pool = BufferPool(env["hdfs"], capacity_bytes=1 << 30)
    # warm once (hot runs, as in the paper)
    for cutoff in env["cutoffs"].values():
        _vectorh_query(env, cutoff, pool)
    rows = []
    answers = {}
    for sel, cutoff in env["cutoffs"].items():
        timings = {}
        t0 = time.perf_counter()
        answers[("vectorh", sel)] = _vectorh_query(env, cutoff, pool)
        timings["vectorh"] = time.perf_counter() - t0
        for name in ("orc", "parquet", "noskip"):
            t0 = time.perf_counter()
            answers[(name, sel)] = _format_query(env[name], cutoff)
            timings[name] = time.perf_counter() - t0
        rows.append((sel, timings))
    # every format computes the same answer
    for sel in env["cutoffs"]:
        assert len({answers[(n, sel)]
                    for n in ("vectorh", "orc", "parquet", "noskip")}) == 1
    lines = ["FIG 1a: hot query time (seconds) -- "
             f"SF={SCALE_FACTOR}, lower is better",
             f"{'sel':>5} {'vectorh':>10} {'orc':>10} {'parquet':>10} "
             f"{'parquet(noskip/impala)':>24}"]
    for sel, t in rows:
        lines.append(f"{sel:>5} {t['vectorh']:>10.4f} {t['orc']:>10.4f} "
                     f"{t['parquet']:>10.4f} {t['noskip']:>24.4f}")
        assert t["vectorh"] < t["orc"]
        assert t["vectorh"] < t["parquet"]
    write_report("fig1a_query_time.txt", "\n".join(lines))
    benchmark(_vectorh_query, env, env["cutoffs"][0.3], pool)


def test_fig1b_data_read(env, benchmark):
    """Fig 1b: bytes read per selectivity, per format."""
    hdfs = env["hdfs"]
    lines = [f"FIG 1b: data read (bytes) -- SF={SCALE_FACTOR}",
             f"{'sel':>5} {'vectorh':>12} {'orc':>12} {'parquet':>12} "
             f"{'parquet(noskip)':>16}"]
    shape_ok = []
    for sel, cutoff in env["cutoffs"].items():
        read = {}
        hdfs.registry.reset("hdfs_")
        _vectorh_query(env, cutoff, pool=None)
        read["vectorh"] = hdfs.total_bytes_read()
        for name in ("orc", "parquet", "noskip"):
            env[name].reset_counters()
            _format_query(env[name], cutoff)
            read[name] = env[name].bytes_read
        lines.append(f"{sel:>5} {read['vectorh']:>12} {read['orc']:>12} "
                     f"{read['parquet']:>12} {read['noskip']:>16}")
        shape_ok.append(read["vectorh"] <= read["orc"])
        # ORC does not skip IO: it reads the predicate+payload columns fully
        assert read["orc"] >= read["parquet"] or sel >= 0.9
    assert all(shape_ok)
    write_report("fig1b_data_read.txt", "\n".join(lines))
    benchmark(_vectorh_query, env, env["cutoffs"][0.1], None)


def test_fig1c_compressed_size(env, benchmark):
    """Fig 1c: compressed size per column (l_comment excluded, as in the
    paper -- it is not compressible with lightweight schemes)."""
    vh_sizes = env["vectorh"].partitions[0].bytes_per_column()
    orc_sizes = env["orc"].bytes_per_column()
    pq_sizes = env["parquet"].bytes_per_column()
    columns = [c for c in vh_sizes if c != "l_comment"]
    lines = [f"FIG 1c: compressed size per column (bytes) -- "
             f"SF={SCALE_FACTOR}",
             f"{'column':>18} {'vectorh':>10} {'orc':>10} {'parquet':>10}"]
    totals = {"vectorh": 0, "orc": 0, "parquet": 0}
    for col in sorted(columns):
        lines.append(f"{col:>18} {vh_sizes[col]:>10} {orc_sizes[col]:>10} "
                     f"{pq_sizes[col]:>10}")
        totals["vectorh"] += vh_sizes[col]
        totals["orc"] += orc_sizes[col]
        totals["parquet"] += pq_sizes[col]
    lines.append(f"{'TOTAL':>18} {totals['vectorh']:>10} "
                 f"{totals['orc']:>10} {totals['parquet']:>10}")
    ratio_orc = totals["orc"] / totals["vectorh"]
    ratio_pq = totals["parquet"] / totals["vectorh"]
    lines.append(f"VectorH is {ratio_orc:.2f}x smaller than ORC-like, "
                 f"{ratio_pq:.2f}x smaller than Parquet-like "
                 f"(paper: almost 2x)")
    assert totals["vectorh"] < totals["orc"]
    assert totals["vectorh"] < totals["parquet"]
    write_report("fig1c_compressed_size.txt", "\n".join(lines))
    benchmark(lambda: env["vectorh"].partitions[0].bytes_per_column())
