"""PFOR-DELTA: PFOR applied to the gaps between subsequent values.

Extremely effective on sorted or near-sorted columns (e.g. the clustered
``l_shipdate`` in the paper's micro-benchmark); adopted by Lucene for
inverted-index postings.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.common.errors import CompressionError
from repro.common.types import ColumnType
from repro.compression import bitpack
from repro.compression.base import (
    CompressedBlock,
    CompressionScheme,
    encode_patched,
    patch_positions,
    register_scheme,
)
from repro.compression.pfor import choose_width

_HEADER = "<qqiii"  # first_value, base, width, first_exception, n_exceptions


class PForDeltaScheme(CompressionScheme):
    """Patched frame-of-reference over consecutive deltas."""

    name = "PFOR-DELTA"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        return ctype.is_integer and values.dtype != object and values.size >= 2

    def compress(self, values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
        vals = np.asarray(values, dtype=np.int64)
        if vals.size < 2:
            raise CompressionError("PFOR-DELTA needs at least two values")
        diffs = np.diff(vals)
        base = int(diffs.min())
        deltas = diffs - base
        width = choose_width(deltas)
        limit = 1 << width
        is_exc = deltas >= limit
        codes = np.where(is_exc, 0, deltas)
        codes, chain, first = encode_patched(codes, is_exc, width)
        exceptions = deltas[chain] if chain else np.zeros(0, dtype=np.int64)
        packed = bitpack.pack_bits(codes, width)
        header = struct.pack(_HEADER, int(vals[0]), base, width, first, len(chain))
        data = header + exceptions.astype("<i8").tobytes() + packed
        return CompressedBlock(self.name, int(vals.size), data)

    def decompress(self, block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
        view = memoryview(block.data)
        first_value, base, width, first, n_exc = struct.unpack_from(
            _HEADER, view
        )
        body = struct.calcsize(_HEADER)
        exceptions = np.frombuffer(view, "<i8", n_exc, body)
        diffs = bitpack.unpack_bits(view[body + 8 * n_exc:], width,
                                    block.count - 1)
        positions = patch_positions(diffs, first, n_exc)
        diffs += base
        diffs[positions] = exceptions + base
        # the running sum is taken in int64, in place, whatever the
        # column's dtype; the output is written once
        diffs[0] += first_value
        np.cumsum(diffs, out=diffs)
        out = np.empty(block.count, dtype=ctype.dtype)
        out[0] = first_value
        out[1:] = diffs
        return out


register_scheme(PForDeltaScheme())
