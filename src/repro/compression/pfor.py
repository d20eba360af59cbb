"""PFOR: Patched Frame-Of-Reference compression (Zukowski et al., ICDE'06).

Values are stored as the difference from a per-block base (the frame of
reference) in ``width``-bit codes. Values whose difference does not fit are
exceptions, stored as raw int64 at the end of the block and linked through
their code slots.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.common.types import ColumnType
from repro.compression import bitpack
from repro.compression.base import (
    CompressedBlock,
    CompressionScheme,
    encode_patched,
    patch_positions,
    register_scheme,
)

_HEADER = "<qiii"  # base, width, first_exception, n_exceptions


def choose_width(deltas: np.ndarray) -> int:
    """Pick the code width minimizing packed codes + exception storage."""
    if deltas.size == 0:
        return 1
    max_delta = int(deltas.max())
    full_width = min(bitpack.MAX_CODE_WIDTH, bitpack.width_for(max_delta))
    best_width, best_size = full_width, None
    for width in range(1, full_width + 1):
        limit = 1 << width
        n_exc = int((deltas >= limit).sum())
        size = bitpack.packed_size(deltas.size, width) + 8 * n_exc
        if best_size is None or size < best_size:
            best_width, best_size = width, size
    return best_width


class PForScheme(CompressionScheme):
    """Patched frame-of-reference for integer-like columns."""

    name = "PFOR"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        return ctype.is_integer and values.dtype != object

    def compress(self, values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
        vals = np.asarray(values, dtype=np.int64)
        if vals.size == 0:
            data = struct.pack(_HEADER, 0, 1, -1, 0)
            return CompressedBlock(self.name, 0, data)
        base = int(vals.min())
        deltas = vals - base
        width = choose_width(deltas)
        limit = 1 << width
        is_exc = deltas >= limit
        codes = np.where(is_exc, 0, deltas)
        codes, chain, first = encode_patched(codes, is_exc, width)
        exceptions = deltas[chain] if chain else np.zeros(0, dtype=np.int64)
        packed = bitpack.pack_bits(codes, width)
        header = struct.pack(_HEADER, base, width, first, len(chain))
        data = header + exceptions.astype("<i8").tobytes() + packed
        return CompressedBlock(self.name, int(vals.size), data)

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
