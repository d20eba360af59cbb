"""PFOR-DELTA: PFOR applied to the gaps between subsequent values.

Extremely effective on sorted or near-sorted columns (e.g. the clustered
``l_shipdate`` in the paper's micro-benchmark); adopted by Lucene for
inverted-index postings.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from repro.common.types import ColumnType
from repro.compression import bitpack
from repro.compression.base import (
    Analysis,
    CompressedBlock,
    CompressionScheme,
    RawBlock,
    patch_positions,
    register_scheme,
)
from repro.compression.pfor import analyse_frame, emit_frame

_HEADER = "<qqiii"  # first_value, base, width, first_exception, n_exceptions


class PForDeltaScheme(CompressionScheme):
    """Patched frame-of-reference over consecutive deltas."""

    name = "PFOR-DELTA"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        return ctype.is_integer and values.dtype != object and values.size >= 2

    def analyse(self, block: RawBlock) -> Optional[Analysis]:
        if block.count < 2:
            return None
        diffs = np.diff(block.int64)
        base = int(diffs.min())
        diffs -= base
        frame = analyse_frame(diffs)
        if frame is None:
            return None
        width, chain = frame
        size = (struct.calcsize(_HEADER) + 8 * chain.size
                + bitpack.packed_size(block.count - 1, width))
        return Analysis(size, (base, diffs, width, chain))

    def emit(self, block: RawBlock, analysis: Analysis) -> bytes:
        base, deltas, width, chain = analysis.plan
        first, body = emit_frame(deltas, width, chain)
        return struct.pack(_HEADER, int(block.int64[0]), base, width, first,
                           chain.size) + body

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
