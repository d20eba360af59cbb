"""Ablation: compression scheme shoot-out (size, encode and decode throughput).

Quantifies the section-2 claims behind Figure 1c: the lightweight patched
schemes compress typical warehouse columns better than general-purpose
compression *and* decode faster (vectorized two-phase inflation vs
byte-oriented inflate), which is why VectorH reserves LZ for strings the
dictionary cannot catch. The encode column (wall, single shot, not gated)
is each scheme's analyse + emit; the ``best`` row per column is
``compress_best`` -- every scheme sized, the winner alone emitted.

A second table shows what a run saves per scheme: one ``decompress`` of a
run of 1, 2 and 4 blocks against as many single-block calls joined with
``concat_stored`` (the blocks are 32 KB of raw values, as in the
end-to-end benchmark). Wall numbers, best of several repeats; nothing
gates on them.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import write_report
from repro.common.types import INT64, STRING
from repro.compression import SCHEMES, compress_best, decompress
from repro.compression.base import concat_stored

#: the column each scheme's run is cut from, and the rows of its blocks
RUN_COLUMNS = {"PFOR": ("skewed + outliers", 4096),
               "PFOR-DELTA": ("sorted dates", 4096),
               "PDICT": ("low-card strings", 2048),
               "LZ": ("low-card strings", 2048),
               "RAW": ("FK (clustered)", 4096)}


def columns_under_test():
    rng = np.random.default_rng(5)
    n = 60_000
    return {
        "sorted dates": (np.sort(rng.integers(8000, 11000, n)), INT64),
        "FK (clustered)": (np.sort(rng.integers(0, n // 4, n)), INT64),
        "skewed + outliers": (_skewed(rng, n), INT64),
        "low-card strings": (_strings(rng, n), STRING),
    }


def _skewed(rng, n):
    values = rng.integers(0, 64, n)
    values[rng.random(n) < 0.01] = rng.integers(1 << 40, 1 << 41)
    return values.astype(np.int64)


def _strings(rng, n):
    choices = np.array(["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK",
                        "MAIL", "FOB"], dtype=object)
    return rng.choice(choices, n)


def _mvalues_per_s(fn, n_values):
    t0 = time.perf_counter()
    out = fn()
    return out, n_values / (time.perf_counter() - t0) / 1e6


def _best_mvalues_per_s(fn, n_values, repeats=25):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return n_values / best / 1e6


def _one_by_one(blocks, ctype):
    parts = [decompress(block, ctype) for block in blocks]
    return parts[0] if len(parts) == 1 else concat_stored(parts)


def run_table():
    """Decode Mvalues/s of one run of k blocks vs k single-block calls."""
    columns = columns_under_test()
    lines = ["", "RUNS: one decompress of k blocks vs k single-block calls "
             "+ concat_stored (Mvalues/s, best of 25)",
             f"{'scheme':>11} {'k':>3} {'run':>9} {'k calls':>9} "
             f"{'ratio':>7}"]
    for name, (column, rows) in RUN_COLUMNS.items():
        values, ctype = columns[column]
        blocks = [SCHEMES[name].compress(np.asarray(values[i: i + rows]),
                                         ctype)
                  for i in range(0, 4 * rows, rows)]
        for k in (1, 2, 4):
            run = blocks[:k]
            assert np.asarray(decompress(run, ctype)).tolist() == \
                np.asarray(values[:k * rows]).tolist()
            one = _best_mvalues_per_s(lambda: decompress(run, ctype),
                                      k * rows)
            many = _best_mvalues_per_s(lambda: _one_by_one(run, ctype),
                                       k * rows)
            lines.append(f"{name:>11} {k:>3} {one:>9.1f} {many:>9.1f} "
                         f"{one / many:>6.2f}x")
    return lines


def test_compression_shootout(benchmark):
    lines = ["ABLATION: compression schemes -- size (bytes), encode and "
             "decode throughput (Mvalues/s)",
             f"{'column':>18} {'scheme':>15} {'size':>9} {'ratio':>7} "
             f"{'encode MV/s':>12} {'decode MV/s':>12}"]
    decode_speed = {}
    for col_name, (values, ctype) in columns_under_test().items():
        values = np.asarray(values)
        raw = values.nbytes if values.dtype != object else sum(
            len(str(v)) for v in values)
        encoders = {name: scheme.compress
                    for name, scheme in SCHEMES.items()
                    if scheme.can_compress(values, ctype)}
        encoders["best"] = compress_best
        for scheme_name, compress in encoders.items():
            block, encode_mvs = _mvalues_per_s(
                lambda: compress(values, ctype), len(values))
            out, mvs = _mvalues_per_s(
                lambda: decompress(block, ctype), len(values))
            assert len(out) == len(values)
            decode_speed[(col_name, scheme_name)] = mvs
            label = (scheme_name if scheme_name != "best"
                     else f"best={block.scheme}")
            lines.append(
                f"{col_name:>18} {label:>15} {block.size_bytes:>9,} "
                f"{raw / block.size_bytes:>6.1f}x {encode_mvs:>12.1f} "
                f"{mvs:>12.1f}"
            )
    write_report("ablation_compression.txt", "\n".join(lines + run_table()))

    # shape: patched lightweight decode beats LZ on dictionary strings
    assert decode_speed[("low-card strings", "PDICT")] > \
        decode_speed[("low-card strings", "LZ")]

    values, ctype = columns_under_test()["sorted dates"]
    block = SCHEMES["PFOR-DELTA"].compress(np.asarray(values), ctype)
    benchmark(decompress, block, ctype)
