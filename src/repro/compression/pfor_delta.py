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
_FRAME = struct.Struct(_HEADER)


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

    def decompress(self, blocks, ctype: ColumnType) -> np.ndarray:
        """A run's gaps are inflated with one unpack per stretch of one
        width; each block's slice is patched, takes its base and is
        summed up from the block's first value in place, in int64
        whatever the column's dtype. The output is written once."""
        frames, streams = [], []
        for block in blocks:
            view = memoryview(block.data)
            first_value, base, width, first, n_exc = _FRAME.unpack_from(view)
            body = _FRAME.size + 8 * n_exc
            frames.append((block.count - 1, first_value, base, first, n_exc,
                           view[_FRAME.size: body]))
            streams.append((view[body:], width, block.count - 1))
        diffs = bitpack.unpack_streams(streams)
        out = np.empty(len(diffs) + len(frames), dtype=ctype.dtype)
        row = gap = 0
        for n, first_value, base, first, n_exc, exceptions in frames:
            part = diffs[gap: gap + n]
            positions = patch_positions(part, first, n_exc)
            part += base
            if n_exc:
                part[positions] = np.frombuffer(exceptions, "<i8") + base
            part[0] += first_value
            np.cumsum(part, out=part)
            out[row] = first_value
            out[row + 1: row + 1 + n] = part
            row += n + 1
            gap += n
        return out


register_scheme(PForDeltaScheme())
