"""Lightweight column compression: PFOR, PFOR-DELTA, PDICT (paper section 2).

All three schemes store values as thin fixed-bitwidth codes with infrequent
values kept uncompressed as "exceptions" later in the block, linked through
the code slots ("patching"). Decompression inflates all codes with
word-at-a-time load/shift/mask kernels, walks the next-pointer chain once to
collect the exception positions and patches them with one scatter -- the
structure the paper credits for SIMD-friendliness.
"""

from repro.compression.base import (
    CompressedBlock,
    CompressionScheme,
    SCHEMES,
    compress_best,
    decompress,
)
from repro.compression.bitpack import pack_bits, unpack_bits
from repro.compression.pfor import PForScheme
from repro.compression.pfor_delta import PForDeltaScheme
from repro.compression.pdict import PDictScheme
from repro.compression.general import GeneralPurposeScheme, RawScheme

__all__ = [
    "CompressedBlock",
    "CompressionScheme",
    "SCHEMES",
    "compress_best",
    "decompress",
    "pack_bits",
    "unpack_bits",
    "PForScheme",
    "PForDeltaScheme",
    "PDictScheme",
    "GeneralPurposeScheme",
    "RawScheme",
]
