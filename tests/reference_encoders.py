"""The encoders ``repro.compression`` had before the analyse -> size -> emit
split, kept unchanged as the reference the differential test compares
every emitted byte against (``tests/test_encode_differential.py``).

Per-value Python loops and every scheme fully encoded before one is
chosen: slow, and the definition of the on-disk format. Only what an
encoder needs is here, plus the bit-matrix ``unpack_bits`` that the
kernel of ``repro.compression.bitpack`` is checked against; every other
decoding goes through ``repro.compression``. The three ``compress``
methods are plain functions (``pfor_compress``,
``pfor_delta_compress``, ``pdict_compress``) and ``compress_best`` walks
``REFERENCE_SCHEMES`` -- same names, same registration order, same
``can_compress`` answers as the parent's registry -- so FLOAT64 still
reaches PDICT here (the wrong-data bug the new analysis declines).
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.common.errors import CompressionError
from repro.common.types import ColumnType
from repro.compression.base import CompressedBlock
from repro.compression.bitpack import MAX_CODE_WIDTH, packed_size, width_for


# ------------------------------------------------------------------ bitpack

def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into a dense little-endian bit stream."""
    if width < 1 or width > MAX_CODE_WIDTH:
        raise CompressionError(f"unsupported code width {width}")
    vals = np.asarray(values, dtype=np.uint64)
    if vals.size == 0:
        return b""
    if vals.max() >= (1 << width):
        raise CompressionError("value does not fit in code width")
    # Expand each value into `width` bits, little-endian within the value.
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8)
    flat = bits.reshape(-1)
    return np.packbits(flat, bitorder="little").tobytes()


def unpack_bits(data, width: int, count: int, dtype=np.int64) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the stream as single bits, ``width``
    of them per code, little-endian within the code."""
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if width < 1 or width > MAX_CODE_WIDTH:
        raise CompressionError(f"unsupported code width {width}")
    nbytes = packed_size(count, width)
    if len(data) < nbytes:
        raise CompressionError("bit stream too short")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, nbytes),
                         count=count * width, bitorder="little")
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    codes = (bits.reshape(count, width) * weights).sum(axis=1,
                                                       dtype=np.uint64)
    return codes.astype(dtype)


# -------------------------------------------------------------- patch chains

def build_patch_chain(is_exception: np.ndarray, width: int) -> List[int]:
    """Return exception positions, inserting compulsory exceptions."""
    max_gap = (1 << width) - 1
    natural = np.flatnonzero(is_exception)
    if natural.size == 0:
        return []
    chain: List[int] = [int(natural[0])]
    for pos in natural[1:]:
        pos = int(pos)
        while pos - chain[-1] > max_gap:
            chain.append(chain[-1] + max_gap)
        chain.append(pos)
    return chain


def encode_patched(
    codes: np.ndarray,
    is_exception: np.ndarray,
    width: int,
) -> Tuple[np.ndarray, List[int], int]:
    """Overwrite exception code slots with next-exception gaps."""
    chain = build_patch_chain(is_exception, width)
    out = codes.copy()
    for i, pos in enumerate(chain):
        gap = chain[i + 1] - pos if i + 1 < len(chain) else 0
        out[pos] = gap
    first = chain[0] if chain else -1
    return out, chain, first


# --------------------------------------------------------------------- PFOR

_PFOR_HEADER = "<qiii"  # base, width, first_exception, n_exceptions


def choose_width(deltas: np.ndarray) -> int:
    """Pick the code width minimizing packed codes + exception storage."""
    if deltas.size == 0:
        return 1
    max_delta = int(deltas.max())
    full_width = min(MAX_CODE_WIDTH, width_for(max_delta))
    best_width, best_size = full_width, None
    for width in range(1, full_width + 1):
        limit = 1 << width
        n_exc = int((deltas >= limit).sum())
        size = packed_size(deltas.size, width) + 8 * n_exc
        if best_size is None or size < best_size:
            best_width, best_size = width, size
    return best_width


def pfor_compress(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
    vals = np.asarray(values, dtype=np.int64)
    if vals.size == 0:
        data = struct.pack(_PFOR_HEADER, 0, 1, -1, 0)
        return CompressedBlock("PFOR", 0, data)
    base = int(vals.min())
    deltas = vals - base
    width = choose_width(deltas)
    limit = 1 << width
    is_exc = deltas >= limit
    codes = np.where(is_exc, 0, deltas)
    codes, chain, first = encode_patched(codes, is_exc, width)
    exceptions = deltas[chain] if chain else np.zeros(0, dtype=np.int64)
    packed = pack_bits(codes, width)
    header = struct.pack(_PFOR_HEADER, base, width, first, len(chain))
    data = header + exceptions.astype("<i8").tobytes() + packed
    return CompressedBlock("PFOR", int(vals.size), data)


# --------------------------------------------------------------- PFOR-DELTA

_DELTA_HEADER = "<qqiii"  # first_value, base, width, first_exc, n_exc


def pfor_delta_compress(values: np.ndarray,
                        ctype: ColumnType) -> CompressedBlock:
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
    packed = pack_bits(codes, width)
    header = struct.pack(_DELTA_HEADER, int(vals[0]), base, width, first,
                         len(chain))
    data = header + exceptions.astype("<i8").tobytes() + packed
    return CompressedBlock("PFOR-DELTA", int(vals.size), data)


# -------------------------------------------------------------------- PDICT

_PDICT_HEADER = "<iiii"  # width, first_exception, n_exceptions, n_dict

_MAX_DICT_WIDTH = 16  # dictionaries beyond 64K entries stop paying off


def _encode_value(value, ctype: ColumnType) -> bytes:
    if ctype.is_string:
        raw = str(value).encode("utf-8")
        return struct.pack("<I", len(raw)) + raw
    return struct.pack("<q", int(value))


def pdict_compress(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
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
            packed_size(n, width)
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
    packed = pack_bits(codes, width)
    header = struct.pack(_PDICT_HEADER, width, first, len(chain), dict_size)
    data = header + dict_bytes + exc_bytes + packed
    return CompressedBlock("PDICT", n, data)


# ----------------------------------------------------------------- RAW / LZ

def _strings_to_bytes(values) -> bytes:
    parts = []
    for v in values:
        raw = str(v).encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def raw_compress(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
    if ctype.is_string:
        data = _strings_to_bytes(values)
    else:
        data = np.ascontiguousarray(values, dtype=ctype.dtype).tobytes()
    return CompressedBlock("RAW", len(values), data)


def lz_compress(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
    if ctype.is_string:
        raw = _strings_to_bytes(values)
    else:
        raw = np.ascontiguousarray(values, dtype=ctype.dtype).tobytes()
    return CompressedBlock("LZ", len(values), zlib.compress(raw, 1))


# ----------------------------------------------------------------- registry

def _integer_block(values: np.ndarray, ctype: ColumnType) -> bool:
    return ctype.is_integer and values.dtype != object


Scheme = Tuple[Callable[[np.ndarray, ColumnType], bool],
               Callable[[np.ndarray, ColumnType], CompressedBlock]]

#: name -> (can_compress, compress), in the parent's registration order
REFERENCE_SCHEMES: Dict[str, Scheme] = {
    "PFOR": (_integer_block, pfor_compress),
    "PFOR-DELTA": (lambda v, t: _integer_block(v, t) and v.size >= 2,
                   pfor_delta_compress),
    "PDICT": (lambda v, t: v.size > 0, pdict_compress),
    "RAW": (lambda v, t: True, raw_compress),
    "LZ": (lambda v, t: t.is_string or t.name == "float64", lz_compress),
}

DICT_COMPRESSIBLE_RATIO = 0.5


def compress_best(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
    """Compress with every applicable scheme and keep the best result."""
    values = np.asarray(values)
    candidates: Dict[str, CompressedBlock] = {}
    for name, (can_compress, compress) in REFERENCE_SCHEMES.items():
        if not can_compress(values, ctype):
            continue
        try:
            candidates[name] = compress(values, ctype)
        except CompressionError:
            continue
    if not candidates:
        raise CompressionError(f"no scheme can compress column type {ctype}")
    raw = candidates.get("RAW")
    lightweight_best = min(
        (b for n, b in candidates.items() if n not in ("RAW", "LZ")),
        key=lambda b: b.size_bytes, default=None,
    )
    if (raw is not None and lightweight_best is not None
            and lightweight_best.size_bytes
            < DICT_COMPRESSIBLE_RATIO * raw.size_bytes):
        candidates.pop("LZ", None)
    best = min(candidates.values(), key=lambda b: b.size_bytes)
    best.ctype_name = ctype.name
    return best
