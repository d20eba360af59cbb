"""Probes: fixed micro-measurements of single layers, run after the
traced pass on the same cluster. Each reports work per second (or peak
memory) of one kernel on the data the workloads actually scan, so a
kernel change shows here before -- and independently of -- any
end-to-end number."""

from __future__ import annotations

import statistics
import struct
import tracemalloc
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from repro.compression import (
    CompressedBlock, compress_best, decompress, pack_bits, unpack_bits,
)
from repro.storage.colstore import _BLOCK_HEADER, _SCHEME_NAMES

Q1_COLUMNS = ["l_returnflag", "l_linestatus", "l_quantity",
              "l_extendedprice", "l_discount", "l_tax", "l_shipdate"]
SCHEMES = ("PFOR", "PFOR-DELTA", "PDICT", "LZ")
REPEATS = 3


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _stored_blocks(cluster) -> Dict[str, List[Tuple[CompressedBlock, object]]]:
    """Every stored lineitem block, by scheme, read straight from HDFS."""
    stored = cluster.tables["lineitem"]
    header = struct.calcsize(_BLOCK_HEADER)
    by_scheme: Dict[str, list] = {s: [] for s in SCHEMES}
    for store in stored.partitions:
        for column, refs in store.blocks.items():
            ctype = stored.schema.ctype(column)
            for ref in refs:
                if ref.scheme not in by_scheme:
                    continue
                raw = store.hdfs.read(ref.path, ref.offset, ref.length)
                scheme_id, count, _ = struct.unpack(_BLOCK_HEADER,
                                                    raw[:header])
                block = CompressedBlock(_SCHEME_NAMES[scheme_id], count,
                                        raw[header:])
                by_scheme[ref.scheme].append((block, ctype))
    return by_scheme


def run(cluster, data) -> Dict[str, float]:
    out: Dict[str, float] = {}
    stored = cluster.tables["lineitem"]

    # storage: a full scan of the Q1 columns of every lineitem partition
    def scan():
        rows = 0
        for pid in range(stored.n_partitions):
            node = cluster.responsible("lineitem", pid)
            rows += stored.scan_partition(
                pid, Q1_COLUMNS, reader=node,
                pool=cluster.pool_of(node)).n_rows
        return rows
    out["storage.scan_rows_per_s"] = scan() / _median_seconds(scan)

    # compression: decode every stored lineitem block, per scheme
    peak = 0
    for scheme, blocks in _stored_blocks(cluster).items():
        key = f"compression.decode_rows_per_s.{scheme}"
        if not blocks:
            out[key] = 0.0
            continue

        def decode():
            for block, ctype in blocks:
                decompress(block, ctype)
        rows = sum(block.count for block, _ in blocks)
        out[key] = rows / _median_seconds(decode)
        tracemalloc.start()
        decompress(*max(blocks, key=lambda b: b[0].count))
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    out["compression.decode_peak_mb"] = peak / (1 << 20)

    # compression: the bit-unpacking kernel under all three schemes
    codes = np.random.default_rng(99).integers(0, 1 << 13, 1 << 18)
    packed = pack_bits(codes, 13)
    out["compression.unpack_bits_values_per_s"] = len(codes) / _median_seconds(
        lambda: unpack_bits(packed, 13, len(codes)))

    # compression: encode one block's worth of every lineitem column
    columns = stored.to_storage_columns(
        {name: values[:4096] for name, values in data["lineitem"].items()})

    def encode():
        for name, values in columns.items():
            ctype = stored.schema.ctype(name)
            compress_best(np.asarray(values, dtype=ctype.dtype), ctype)
    out["compression.encode_rows_per_s"] = (
        4096 * len(columns) / _median_seconds(encode))
    return out
