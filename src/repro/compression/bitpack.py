"""Fixed-bitwidth packing of non-negative integer codes.

This is the physical layer under PFOR/PFOR-DELTA/PDICT: codes of ``width``
bits are laid out densely, little-endian bit order. Packing and unpacking are
vectorized with numpy (the Python stand-in for the paper's AVX2 kernels that
inflate 64-128 values in under half a cycle per value): both follow the
word-aligned load -> shift -> mask scheme of Zhao et al., not bit by bit.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CompressionError

MAX_CODE_WIDTH = 32


def _plan(width: int):
    # a group: 32 codes in `width` words. Code j starts in word j * width >> 5
    # at shift j * width & 31; word k's first code is ceil(32 * k / width)
    bit = np.arange(32) * width
    plan = (bit >> 5, (bit & 31).astype(np.uint64),
            (np.arange(width) * 32 + width - 1) // width)
    for table in plan:
        table.flags.writeable = False
    return plan


#: per width: the (word, shift) of a group's 32 codes, each word's first code
_PLANS = (None,) + tuple(_plan(w) for w in range(1, MAX_CODE_WIDTH + 1))

#: codes per pass into a narrow dtype (whole groups; the uint64 temporary)
_STEP = 2048


def width_for(max_value: int) -> int:
    """Smallest bit width that can represent ``max_value`` (>= 0)."""
    if max_value < 0:
        raise CompressionError(f"negative code {max_value} cannot be packed")
    return max(1, int(max_value).bit_length())


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into a dense little-endian bit stream.

    The mirror of :func:`unpack_bits`: codes shifted into the 64-bit
    windows over their words are summed per word at the plan's first codes;
    a word is its window's low half | its predecessor's high half.
    """
    if width < 1 or width > MAX_CODE_WIDTH:
        raise CompressionError(f"unsupported code width {width}")
    vals = np.asarray(values, dtype=np.uint64)
    count = vals.size
    if count == 0:
        return b""
    if vals.max() >= (1 << width):
        raise CompressionError("value does not fit in code width")
    if width in (8, 16, 32):
        return vals.astype(f"<u{width // 8}").tobytes()
    if width == 1:
        return np.packbits(vals.astype(np.uint8), bitorder="little").tobytes()
    _, shift, first_code = _PLANS[width]
    codes = np.zeros(((count + 31) >> 5, 32), dtype=np.uint64)
    codes.reshape(-1)[:count] = vals
    codes <<= shift
    windows = np.add.reduceat(codes, first_code, axis=1).reshape(-1)
    words = np.zeros(windows.size + 1, dtype="<u4")
    words[:-1] = windows  # the low halves
    words[1:] |= windows >> np.uint64(32)
    return words.tobytes()[:packed_size(count, width)]


def unpack_bits(data, width: int, count: int, dtype=np.int64) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``count`` codes, written once as ``dtype``.

    The stream is copied once into aligned words, zero-padded to whole groups,
    and viewed as overlapping 64-bit windows (word + successor); a group's
    codes are one gather of the plan's 32 columns, one shift, one mask: viewed
    as a 64-bit ``dtype``, cast ``_STEP`` at a time (wrapping) to a narrower one.
    """
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if width < 1 or width > MAX_CODE_WIDTH:
        raise CompressionError(f"unsupported code width {width}")
    nbytes = packed_size(count, width)
    if len(data) < nbytes:
        raise CompressionError("bit stream too short")
    if width in (8, 16, 32):
        return np.frombuffer(data, f"<u{width // 8}", count).astype(dtype)
    stream = np.frombuffer(data, np.uint8, nbytes)
    if width == 1:
        return np.unpackbits(stream, count=count, bitorder="little").astype(dtype)
    groups = (count + 31) >> 5
    halves = np.zeros(groups * width + 2, dtype="<u4")
    halves.view(np.uint8)[:nbytes] = stream
    windows = np.ndarray((groups, width), "<u8", halves, 0, (4 * width, 4))
    word, shift, _ = _PLANS[width]
    wide = np.dtype(dtype) in (np.int64, np.uint64)
    out, step = (None, count) if wide else (np.empty(count, dtype), _STEP)
    for start in range(0, count, step):
        codes = windows[start >> 5:(start + step + 31) >> 5].take(word, axis=1)
        codes >>= shift
        codes &= np.uint64((1 << width) - 1)
        codes = codes.reshape(-1)[:count - start]
        if wide:
            return codes.view(dtype)
        out[start:start + codes.size] = codes
    return out


def packed_size(count: int, width: int) -> int:
    """Bytes needed to pack ``count`` codes of ``width`` bits."""
    return (count * width + 7) // 8
