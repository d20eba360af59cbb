"""Ablation: compression scheme shoot-out (size, encode and decode throughput).

Quantifies the section-2 claims behind Figure 1c: the lightweight patched
schemes compress typical warehouse columns better than general-purpose
compression *and* decode faster (vectorized two-phase inflation vs
byte-oriented inflate), which is why VectorH reserves LZ for strings the
dictionary cannot catch. The encode column (wall, single shot, not gated)
is each scheme's analyse + emit; the ``best`` row per column is
``compress_best`` -- every scheme sized, the winner alone emitted.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import write_report
from repro.common.types import INT64, STRING
from repro.compression import SCHEMES, compress_best, decompress


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
    write_report("ablation_compression.txt", "\n".join(lines))

    # shape: patched lightweight decode beats LZ on dictionary strings
    assert decode_speed[("low-card strings", "PDICT")] > \
        decode_speed[("low-card strings", "LZ")]

    values, ctype = columns_under_test()["sorted dates"]
    block = SCHEMES["PFOR-DELTA"].compress(np.asarray(values), ctype)
    benchmark(decompress, block, ctype)
