"""PDICT: patched dictionary compression.

Frequent values live in a per-block dictionary and are stored as thin
dictionary-index codes; infrequent values are exceptions stored raw and
linked through their code slots, so a skewed frequency distribution never
blows up the dictionary (paper section 2).
"""

from __future__ import annotations

import struct
from collections import Counter

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

_HEADER = "<iiii"  # width, first_exception, n_exceptions, n_dict

_MAX_DICT_WIDTH = 16  # dictionaries beyond 64K entries stop paying off


def _encode_value(value, ctype: ColumnType) -> bytes:
    if ctype.is_string:
        raw = str(value).encode("utf-8")
        return struct.pack("<I", len(raw)) + raw
    return struct.pack("<q", int(value))


def _decode_values(view: memoryview, offset: int, count: int,
                   ctype: ColumnType):
    """``count`` raw values starting at ``offset``; returns them (as an
    array in the column's dtype) and the offset just past them."""
    if not ctype.is_string:
        values = np.frombuffer(view, "<i8", count, offset)
        return values.astype(ctype.dtype), offset + 8 * count
    values = np.empty(count, dtype=object)
    for i in range(count):
        (length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        values[i] = str(view[offset: offset + length], "utf-8")
        offset += length
    return values, offset


class PDictScheme(CompressionScheme):
    """Patched dictionary encoding for strings and low-cardinality ints."""

    name = "PDICT"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        return values.size > 0

    def compress(self, values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
        vals = list(values) if ctype.is_string else np.asarray(values, np.int64)
        freq = Counter(vals if ctype.is_string else vals.tolist())
        ordered = [v for v, _ in freq.most_common()]
        per_value = 8 if not ctype.is_string else (
            4 + int(np.mean([len(str(v).encode()) for v in ordered]))
        )
        # Pick the dictionary width minimizing codes + dict + exceptions.
        best = None
        n = len(values)
        for width in range(1, _MAX_DICT_WIDTH + 1):
            dict_size = min(len(ordered), 1 << width)
            covered = sum(freq[v] for v in ordered[:dict_size])
            n_exc = n - covered
            size = (
                bitpack.packed_size(n, width)
                + dict_size * per_value
                + n_exc * per_value
            )
            if best is None or size < best[0]:
                best = (size, width, dict_size)
            if dict_size == len(ordered):
                break
        _, width, dict_size = best
        dictionary = ordered[:dict_size]
        index = {v: i for i, v in enumerate(dictionary)}
        codes = np.zeros(n, dtype=np.int64)
        is_exc = np.zeros(n, dtype=bool)
        for i, v in enumerate(vals if ctype.is_string else vals.tolist()):
            code = index.get(v)
            if code is None:
                is_exc[i] = True
            else:
                codes[i] = code
        codes, chain, first = encode_patched(codes, is_exc, width)
        source = vals if ctype.is_string else vals.tolist()
        exc_bytes = b"".join(_encode_value(source[p], ctype) for p in chain)
        dict_bytes = b"".join(_encode_value(v, ctype) for v in dictionary)
        packed = bitpack.pack_bits(codes, width)
        header = struct.pack(_HEADER, width, first, len(chain), dict_size)
        data = header + dict_bytes + exc_bytes + packed
        return CompressedBlock(self.name, n, data)

    def decompress(self, block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
        view = memoryview(block.data)
        width, first, n_exc, n_dict = struct.unpack_from(_HEADER, view)
        offset = struct.calcsize(_HEADER)
        dictionary, offset = _decode_values(view, offset, n_dict, ctype)
        exceptions, offset = _decode_values(view, offset, n_exc, ctype)
        codes = bitpack.unpack_bits(view[offset:], width, block.count,
                                    np.intp)
        positions = patch_positions(codes, first, n_exc)
        # the exceptions' slots hold gap links: any in-bounds entry will
        # do until they are patched
        codes[positions] = 0
        out = dictionary[codes]
        out[positions] = exceptions
        return out


register_scheme(PDictScheme())
