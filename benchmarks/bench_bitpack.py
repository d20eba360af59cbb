"""Bit (un)packing per code width: the kernel against the bit matrix.

``repro.compression.bitpack`` inflates a block of ``width``-bit codes by
static position (32 codes fill exactly ``width`` 32-bit words, so every
code's word and shift are constants of the width) and packs them by the
mirror reduction. This bench times both, for every width 1..32 at the
block sizes the column store writes (2,048 / 4,096 / 8,192 codes), next
to the bit-matrix reference of ``tests/reference_encoders.py`` -- which
defines the format -- and checks that the two agree on every byte.

Run: ``PYTHONPATH=src:. python -m pytest benchmarks/bench_bitpack.py -q``
(a few seconds); writes ``benchmarks/results/bitpack_widths.txt``.
"""

import time

import numpy as np

from benchmarks.conftest import write_report
from repro.compression import pack_bits, unpack_bits
from tests import reference_encoders as reference

COUNTS = (2048, 4096, 8192)
KERNEL_REPEATS = 25
REFERENCE_REPEATS = 5


def best_seconds(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bitpack_per_width():
    rng = np.random.default_rng(5)
    lines = [
        "BITPACK: values/s per code width and block size (best of "
        f"{KERNEL_REPEATS} kernel / {REFERENCE_REPEATS} reference runs; "
        "x ref = kernel speed / bit-matrix reference speed)",
        f"{'width':>5} {'count':>6} {'unpack M/s':>11} {'x ref':>7} "
        f"{'pack M/s':>9} {'x ref':>7}",
    ]
    for width in range(1, 33):
        for count in COUNTS:
            codes = rng.integers(0, 1 << width, count)
            packed = pack_bits(codes, width)
            assert packed == reference.pack_bits(codes, width), width
            assert np.array_equal(unpack_bits(packed, width, count), codes)
            unpack = best_seconds(
                lambda: unpack_bits(packed, width, count), KERNEL_REPEATS)
            unpack_ref = best_seconds(
                lambda: reference.unpack_bits(packed, width, count),
                REFERENCE_REPEATS)
            pack = best_seconds(lambda: pack_bits(codes, width),
                                KERNEL_REPEATS)
            pack_ref = best_seconds(
                lambda: reference.pack_bits(codes, width), REFERENCE_REPEATS)
            lines.append(
                f"{width:>5} {count:>6} {count / unpack / 1e6:>11.1f} "
                f"{unpack_ref / unpack:>6.1f}x {count / pack / 1e6:>9.1f} "
                f"{pack_ref / pack:>6.1f}x")
    write_report("bitpack_widths.txt", "\n".join(lines) + "\n")
