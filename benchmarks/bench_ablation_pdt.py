"""Ablation: PDT merge cost vs update volume, and propagation modes.

DESIGN.md calls out two design choices worth quantifying:

* positional merging should keep scan overhead roughly linear in the
  number of buffered differences and negligible for small PDTs (the basis
  of the Figure-7 GeoDiff result);
* update propagation's tail-insert separation: flushing tail inserts only
  appends new blocks, while mixed updates force a full partition rewrite
  -- or, under the un-forced rule, wait in the PDT while the tail is
  appended, until they are due on their own.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import bench_config, write_report
from repro.common.types import DATE, INT64
from repro.hdfs import HdfsCluster
from repro.storage import Column, StoredTable, TableSchema

N_ROWS = 40_000


def fresh_table(clustered=True):
    config = bench_config()
    hdfs = HdfsCluster(["n0", "n1", "n2"], config)
    schema = TableSchema(
        "t", [Column("k", INT64), Column("d", DATE), Column("v", INT64)],
        clustered_on=("d",) if clustered else (),
    )
    table = StoredTable(hdfs, "/ablate", schema, config)
    rng = np.random.default_rng(0)
    table.bulk_load({
        "k": np.arange(N_ROWS, dtype=np.int64),
        "d": np.sort(rng.integers(8000, 11000, N_ROWS)).astype(np.int32),
        "v": rng.integers(0, 100, N_ROWS),
    })
    return table


def scan_time(table, repeats=5):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        table.scan_partition(0, ["k", "d", "v"])
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_pdt_merge_overhead_vs_volume(benchmark):
    table = fresh_table()
    base = scan_time(table)
    lines = ["ABLATION: scan time vs buffered PDT updates "
             f"({N_ROWS} stable rows)",
             f"{'updates':>8} {'scan (s)':>10} {'overhead':>9}"]
    lines.append(f"{0:>8} {base:>10.5f} {'1.00x':>9}")
    rng = np.random.default_rng(1)
    overheads = []
    for n_updates in (32, 256, 2048):
        trans = table.pdt[0].begin()
        dates = rng.integers(8000, 11000, n_updates).astype(np.int32)
        table.insert_rows({
            "k": np.arange(10**6, 10**6 + n_updates),
            "d": dates,
            "v": np.zeros(n_updates, np.int64),
        }, lambda _: trans)
        table.pdt[0].commit(trans)
        merged = scan_time(table)
        overheads.append(merged / base)
        lines.append(f"{table.pdt[0].total_entries():>8} {merged:>10.5f} "
                     f"{merged / base:>8.2f}x")
    write_report("ablation_pdt_scan.txt", "\n".join(lines))
    # small PDTs must be near-free; growth should be gentle
    assert overheads[0] < 3.0
    assert overheads[-1] < 12.0
    benchmark(lambda: table.scan_partition(0, ["k"]))


def test_pdt_propagation_tail_vs_full(benchmark):
    lines = ["ABLATION: update propagation -- tail flush vs full rewrite"]
    # tail-only: inserts appended at the end of an unordered table
    table = fresh_table(clustered=False)
    trans = table.pdt[0].begin()
    table.insert_rows({
        "k": np.arange(10**6, 10**6 + 500),
        "d": np.full(500, 11_000, np.int32),
        "v": np.zeros(500, np.int64),
    }, lambda _: trans)
    table.pdt[0].commit(trans)
    table.hdfs.registry.reset("hdfs_")
    t0 = time.perf_counter()
    mode = table.propagate(0)
    tail_time = time.perf_counter() - t0
    tail_io = table.hdfs.total_bytes_read()
    assert mode == "tail"
    lines.append(f"tail flush : {tail_time:.4f}s, {tail_io:,} bytes re-read")

    # mixed updates: deletes force the full rewrite
    table2 = fresh_table(clustered=False)
    trans = table2.pdt[0].begin()
    res = table2.scan_partition(0, ["k"], trans=trans)
    table2.delete_rows(0, res.identities[:500], trans)
    table2.pdt[0].commit(trans)
    table2.hdfs.registry.reset("hdfs_")
    t0 = time.perf_counter()
    mode = table2.propagate(0)
    full_time = time.perf_counter() - t0
    full_io = table2.hdfs.total_bytes_read()
    assert mode == "full"
    lines.append(f"full rewrite: {full_time:.4f}s, {full_io:,} bytes re-read")
    lines.append(f"tail flush re-reads {full_io / max(tail_io, 1):.0f}x "
                 "less data")

    # a mixed PDT: 500 tail inserts and 50 deletes, with the deletes not
    # due on their own -- un-forced, the tail is flushed and they stay
    lines.append("mixed PDT (500 tail inserts, 50 deletes), threshold 100:")
    arms = {}
    for force in (False, True):
        table3 = fresh_table(clustered=False)
        table3.config.pdt_propagate_threshold = 100
        trans = table3.pdt[0].begin()
        res = table3.scan_partition(0, ["k"], trans=trans)
        table3.delete_rows(0, res.identities[:50], trans)
        table3.insert_rows({
            "k": np.arange(10**6, 10**6 + 500),
            "d": np.full(500, 11_000, np.int32),
            "v": np.zeros(500, np.int64),
        }, lambda _: trans)
        table3.pdt[0].commit(trans)
        assert table3.needs_propagation(0)
        table3.hdfs.registry.reset("hdfs_")
        t0 = time.perf_counter()
        mode = table3.propagate(0, force=force)
        seconds = time.perf_counter() - t0
        read = table3.hdfs.total_bytes_read()
        written = sum(n.bytes_written for n in table3.hdfs.nodes.values())
        arms[force] = written
        assert mode == ("full" if force else "tail")
        assert table3.pdt[0].total_entries() == (0 if force else 50)
        label = ("forced, full rewrite" if force
                 else "un-forced, tail flush keeping the deletes")
        lines.append(f"  {label}: {seconds:.4f}s, {read:,} bytes re-read, "
                     f"{written:,} bytes written")
    lines.append(f"  the deferring tail flush writes "
                 f"{arms[True] / max(arms[False], 1):.0f}x less data")
    write_report("ablation_pdt_propagation.txt", "\n".join(lines))
    assert tail_io < full_io / 5  # appends avoid rewriting the table
    assert arms[False] < arms[True] / 5

    benchmark.pedantic(_tail_round, rounds=2, iterations=1)


def _tail_round():
    table = fresh_table(clustered=False)
    trans = table.pdt[0].begin()
    table.insert_rows({
        "k": np.arange(100), "d": np.full(100, 11_000, np.int32),
        "v": np.zeros(100, np.int64),
    }, lambda _: trans)
    table.pdt[0].commit(trans)
    table.propagate(0)
