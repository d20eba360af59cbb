"""PFOR: Patched Frame-Of-Reference compression (Zukowski et al., ICDE'06).

Values are stored as the difference from a per-block base (the frame of
reference) in ``width``-bit codes. Values whose difference does not fit are
exceptions, stored as raw int64 at the end of the block and linked through
their code slots.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.common.types import ColumnType
from repro.compression import bitpack
from repro.compression.base import (
    Analysis,
    CompressedBlock,
    CompressionScheme,
    RawBlock,
    build_patch_chain,
    link_chain,
    patch_positions,
    register_scheme,
)

_HEADER = "<qiii"  # base, width, first_exception, n_exceptions


def choose_width(deltas: np.ndarray) -> int:
    """Pick the code width minimizing packed codes + exception storage.

    A delta is an exception at every width below its bit length, so one
    histogram of bit lengths gives the exception count of every width at
    once. The bit length is the float's exponent: exact below 2**53, and
    above it rounding cannot bring a length down to the 32 that matter.
    Negative (wrapped) deltas are never exceptions.
    """
    if deltas.size == 0:
        return 1
    full_width = min(bitpack.MAX_CODE_WIDTH,
                     bitpack.width_for(int(deltas.max())))
    bit_length = np.frexp(np.maximum(deltas, 0).astype(np.float64))[1]
    fits = np.cumsum(np.bincount(bit_length, minlength=full_width + 1))
    widths = np.arange(1, full_width + 1)
    sizes = (deltas.size * widths + 7) // 8 + 8 * (deltas.size - fits[widths])
    return int(widths[np.argmin(sizes)])  # the narrowest of equals


def analyse_frame(deltas: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """Code width and patch chain (compulsory exceptions included) for
    non-negative ``deltas`` from a frame of reference; None when the frame
    overflowed int64 and left a negative delta in a code slot."""
    width = choose_width(deltas)
    chain = build_patch_chain(deltas >= (1 << width), width)
    # a wrapped delta survives only under a compulsory exception's link
    if deltas.min() < 0 and not np.isin(np.flatnonzero(deltas < 0),
                                        chain).all():
        return None
    return width, chain


def emit_frame(deltas: np.ndarray, width: int, chain: np.ndarray):
    """``(first_exception, exception bytes + packed codes)``."""
    codes = deltas.astype(np.uint64)
    exceptions = deltas[chain].astype("<i8").tobytes()
    first = link_chain(codes, chain)
    return first, exceptions + bitpack.pack_bits(codes, width)


class PForScheme(CompressionScheme):
    """Patched frame-of-reference for integer-like columns."""

    name = "PFOR"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        return ctype.is_integer and values.dtype != object

    def analyse(self, block: RawBlock) -> Optional[Analysis]:
        header = struct.calcsize(_HEADER)
        if block.count == 0:
            return Analysis(header)
        base = int(block.int64.min())
        deltas = block.int64 - base
        frame = analyse_frame(deltas)
        if frame is None:
            return None
        width, chain = frame
        size = (header + 8 * chain.size
                + bitpack.packed_size(block.count, width))
        return Analysis(size, (base, deltas, width, chain))

    def emit(self, block: RawBlock, analysis: Analysis) -> bytes:
        if block.count == 0:
            return struct.pack(_HEADER, 0, 1, -1, 0)
        base, deltas, width, chain = analysis.plan
        first, body = emit_frame(deltas, width, chain)
        return struct.pack(_HEADER, base, width, first, chain.size) + body

    def decompress(self, block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
        view = memoryview(block.data)
        base, width, first, n_exc = struct.unpack_from(_HEADER, view)
        body = struct.calcsize(_HEADER)
        exceptions = np.frombuffer(view, "<i8", n_exc, body)
        # Codes are inflated straight into the column's dtype. A code may
        # exceed a 32-bit dtype on its own (negative base); it wraps on
        # the way in and "+= base" wraps it back, the sum being a value
        # of the column.
        out = bitpack.unpack_bits(view[body + 8 * n_exc:], width,
                                  block.count, ctype.dtype)
        positions = patch_positions(out, first, n_exc)
        out += base
        out[positions] = exceptions + base
        return out


register_scheme(PForScheme())
