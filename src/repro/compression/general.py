"""General-purpose and raw fallback schemes.

``GeneralPurposeScheme`` wraps zlib and stands in for the Snappy/LZ4 codecs
the Hadoop formats apply to *everything* -- the paper argues this adds
decompression cost for little space gain over lightweight schemes, except
for non-dictionary-compressible strings (where VectorH itself uses LZ4).
``RawScheme`` stores values uncompressed and is the fallback of last resort.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

import numpy as np

from repro.common.types import ColumnType
from repro.compression.base import (
    Analysis,
    CompressedBlock,
    CompressionScheme,
    RawBlock,
    StringImage,
    register_scheme,
)


def _bytes_to_strings(data: bytes, count: int) -> np.ndarray:
    out = np.empty(count, dtype=object)
    offset = 0
    for i in range(count):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        out[i] = str(data[offset: offset + length], "utf-8")
        offset += length
    return out


class RawScheme(CompressionScheme):
    """Uncompressed storage; always applicable."""

    name = "RAW"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        return True

    def analyse(self, block: RawBlock) -> Optional[Analysis]:
        return Analysis(block.raw_size)

    def emit(self, block: RawBlock, analysis: Analysis) -> bytes:
        return block.image

    def payload(self, block: CompressedBlock) -> bytes:
        """The values uncompressed (:attr:`RawBlock.image`)."""
        return block.data

    def _payloads(self, blocks) -> bytes:
        """A run's values uncompressed, block after block: one image."""
        if len(blocks) == 1:
            return self.payload(blocks[0])
        return b"".join(map(self.payload, blocks))

    def image(self, blocks) -> StringImage:
        """A run of string blocks as the image they store: a rewrite
        re-encodes it without turning a row into a ``str``."""
        return StringImage.of_payload(self._payloads(blocks),
                                      sum(b.count for b in blocks))

    def decompress(self, blocks, ctype: ColumnType) -> np.ndarray:
        """The run's payloads joined, then read as one."""
        data = self._payloads(blocks)
        if ctype.is_string:
            return _bytes_to_strings(data, sum(b.count for b in blocks))
        return np.frombuffer(data, dtype=ctype.dtype).copy()


class GeneralPurposeScheme(RawScheme):
    """zlib over the raw encoding (our Snappy/LZ4 stand-in)."""

    name = "LZ"

    #: zlib level 1 approximates the speed/ratio point of LZ4/Snappy.
    level = 1

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        # Lightweight schemes beat LZ on integers; keep LZ for strings and
        # floats, mirroring VectorH's "LZ4 only for non-dict strings".
        return ctype.is_string or ctype.name == "float64"

    def analyse(self, block: RawBlock) -> Optional[Analysis]:
        # the size is only known by compressing: the analysis keeps the bytes
        data = zlib.compress(block.image, self.level)
        return Analysis(len(data), data)

    def emit(self, block: RawBlock, analysis: Analysis) -> bytes:
        return analysis.plan

    def payload(self, block: CompressedBlock) -> bytes:
        return zlib.decompress(block.data)


register_scheme(RawScheme())
register_scheme(GeneralPurposeScheme())
