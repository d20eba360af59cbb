"""Fixed-bitwidth packing of non-negative integer codes.

This is the physical layer under PFOR/PFOR-DELTA/PDICT: codes of ``width``
bits are laid out densely, little-endian bit order. Packing and unpacking
are vectorized with numpy (the Python stand-in for the paper's AVX2
kernels that inflate 64-128 values in under half a cycle per value):
both follow the word-aligned load -> shift -> mask scheme of Zhao et al.
rather than expanding the stream into single bits.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CompressionError

MAX_CODE_WIDTH = 32


def width_for(max_value: int) -> int:
    """Smallest bit width that can represent ``max_value`` (>= 0)."""
    if max_value < 0:
        raise CompressionError(f"negative code {max_value} cannot be packed")
    return max(1, int(max_value).bit_length())


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into a dense little-endian bit stream.

    The mirror of :func:`unpack_bits`: code ``i`` is shifted to its place
    in a 64-bit window over 32-bit word ``i * width >> 5``; the windows of
    the codes that start in one word occupy disjoint bits, so one segmented
    sum per word assembles them, and each word then takes the low half of
    its own window and the high half of its predecessor's. Widths 8/16/32
    are plain little-endian integers, width 1 is ``np.packbits``.
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
    bit = np.arange(0, count * width, width, dtype=np.int64)
    windows = vals << (bit & 31).astype(np.uint64)
    # every word but the stream's last has a code starting in it (width
    # <= 32): the first is code ceil(32 * word / width)
    n_words = ((count - 1) * width >> 5) + 1
    first_code = (np.arange(n_words, dtype=np.int64) * 32 + width - 1) // width
    windows = np.add.reduceat(windows, first_code)
    words = np.zeros(n_words + 1, dtype=np.uint64)
    words[:-1] = windows & np.uint64(0xFFFFFFFF)
    words[1:] |= windows >> np.uint64(32)
    return words.astype("<u4").tobytes()[:packed_size(count, width)]


#: codes inflated per kernel step (a multiple of 32, so every step starts
#: on a word boundary): the index/shift/gather temporaries are this long
#: whatever the block size, so decode memory stays O(block)
_STEP = 2048


def unpack_bits(data, width: int, count: int, dtype=np.int64) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``count`` codes, written once as ``dtype``.

    Word-at-a-time load -> shift -> mask: code ``i`` starts at bit
    ``i * width``, i.e. in 32-bit word ``i * width >> 5`` at shift
    ``i * width & 31``. With width <= 32 it ends within the following word,
    so one 64-bit window per 32-bit word (the word and its successor)
    serves every code with a single gather. Widths 8/16/32 are plain
    little-endian integer views of the stream.
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
    out = np.empty(count, dtype=dtype)
    # Pooled payloads start at arbitrary byte offsets: the (thin) stream is
    # copied once into aligned words, zero-padded by less than 8 bytes.
    halves = np.zeros((nbytes + 3) // 4 + 1, dtype="<u4")
    halves.view(np.uint8)[:nbytes] = np.frombuffer(data, np.uint8, nbytes)
    windows = halves[1:].astype(np.uint64)
    windows <<= 32
    windows |= halves[:-1]
    del halves  # only the windows are gathered from
    # Code i of a step starts i * width bits into it: the step's first
    # window plus (i * width >> 5), at shift (i * width & 31). Steps begin
    # on a window boundary, so one index and one shift vector serve all.
    window = np.arange(0, min(count, _STEP) * width, width, dtype=np.intp)
    shift = (window & 31).astype(np.uint8)
    window >>= 5
    mask = np.uint64((1 << width) - 1)
    for start in range(0, count, _STEP):
        n = min(count - start, _STEP)
        codes = windows[start * width >> 5:].take(window[:n])
        codes >>= shift[:n]
        codes &= mask
        out[start:start + n] = codes
    return out


def packed_size(count: int, width: int) -> int:
    """Bytes needed to pack ``count`` codes of ``width`` bits."""
    return (count * width + 7) // 8
