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

#: widest code a 32-bit window read at the code's first byte holds whole
#: (its shift there is below 8)
NARROW_WIDTH = 25

#: per width up to NARROW_WIDTH: the first byte and the shift of every code
#: of the longest block unpacked into a narrow dtype so far (a memo of
#: constants: it grows only to the longest block, and no output depends
#: on what it holds)
_NARROW_PLANS = {}


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
    codes are one gather of the plan's 32 columns, one shift, one mask. Into
    a narrower ``dtype`` a code of up to :data:`NARROW_WIDTH` bits is instead
    one gather of the 32-bit window at its first byte, one shift, one mask
    (:func:`_unpack_narrow`); a wider one is cast (wrapping) from 64 bits.
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
    wide = np.dtype(dtype) in (np.int64, np.uint64)
    if not wide and width <= NARROW_WIDTH:
        codes = _unpack_narrow(stream, width, count)
        # a code below 2^25 reads the same as uint32 and as int32
        return (codes.view(dtype) if np.dtype(dtype) == np.int32
                else codes.astype(dtype))
    groups = (count + 31) >> 5
    halves = np.zeros(groups * width + 2, dtype="<u4")
    halves.view(np.uint8)[:nbytes] = stream
    windows = np.ndarray((groups, width), "<u8", halves, 0, (4 * width, 4))
    word, shift, _ = _PLANS[width]
    codes = windows.take(word, axis=1)
    codes >>= shift
    codes &= np.uint64((1 << width) - 1)
    codes = codes.reshape(-1)[:count]
    return codes.view(dtype) if wide else codes.astype(dtype)


def _unpack_narrow(stream: np.ndarray, width: int, count: int) -> np.ndarray:
    """``count`` codes of ``width`` <= :data:`NARROW_WIDTH` bits as uint32:
    code ``j`` starts in byte ``j * width >> 3`` at bit ``j * width & 7``,
    so the 32-bit window at that byte holds it whole. Every temporary is
    one block's codes; the plan is the longest block's."""
    plan = _NARROW_PLANS.get(width)
    if plan is None or len(plan[0]) < count:
        bit = np.arange(count) * width
        # (left writeable: ``take`` copies a read-only index array)
        plan = _NARROW_PLANS[width] = (bit >> 3, (bit & 7).astype(np.uint32))
    first_byte, shift = plan
    padded = np.zeros(len(stream) + 4, dtype=np.uint8)
    padded[:len(stream)] = stream
    windows = np.ndarray(len(stream) + 1, "<u4", padded, 0, (1,))
    codes = windows.take(first_byte[:count])
    codes >>= shift[:count]
    codes &= np.uint32((1 << width) - 1)
    return codes


def packed_size(count: int, width: int) -> int:
    """Bytes needed to pack ``count`` codes of ``width`` bits."""
    return (count * width + 7) // 8
