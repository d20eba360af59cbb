"""PDICT: patched dictionary compression.

Frequent values live in a per-block dictionary and are stored as thin
dictionary-index codes; infrequent values are exceptions stored raw and
linked through their code slots, so a skewed frequency distribution never
blows up the dictionary (paper section 2).

A string block is not inflated back to strings when it is read: it decodes
to a :class:`~repro.engine.batch.DictColumn` -- every row's code in a
sorted, distinct dictionary -- which is what the engine groups, joins,
orders and filters on. The dictionary is the column's shared one when the
reader has it (the stored entries and exceptions are looked up in it once
per block, and the rows follow with one ``take``), else the block's own
entries and exceptions, sorted and made distinct.
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
    StringImage,
    build_patch_chain,
    link_chain,
    patch_positions,
    register_scheme,
)
from repro.engine.batch import DictColumn, sorted_distinct

_HEADER = "<iiii"  # width, first_exception, n_exceptions, n_dict

_MAX_DICT_WIDTH = 16  # dictionaries beyond 64K entries stop paying off


def _decode_values(view: memoryview, offset: int, count: int,
                   ctype: ColumnType):
    """``count`` raw values starting at ``offset``; returns them (numbers
    as an array in the column's dtype, strings as a list) and the offset
    just past them."""
    if not ctype.is_string:
        values = np.frombuffer(view, "<i8", count, offset)
        return values.astype(ctype.dtype), offset + 8 * count
    values = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        values.append(str(view[offset: offset + length], "utf-8"))
        offset += length
    return values, offset


# The distinct values of a block, numbered in any order: which one each row
# holds, how often each occurs and the first row holding each.

def _distinct_strings(values):
    """Of a coded column, by its codes; of Python strings, or of a
    :class:`StringImage` by its rows' bytes (no ``str``), through a dict
    of the first row holding each."""
    n = len(values)
    if isinstance(values, DictColumn):
        inverse = values.compacted().codes
        first_row = np.empty(inverse.max() + 1, dtype=np.intp)
        first_row[inverse[::-1]] = np.arange(n - 1, -1, -1)
    else:
        items = (values.texts if isinstance(values, StringImage)
                 else values.tolist())
        first: dict = {}
        rows = np.fromiter(map(first.setdefault, items, range(n)), np.intp, n)
        first_row = np.flatnonzero(rows == np.arange(n))
        number = np.empty(n, dtype=np.intp)
        number[first_row] = np.arange(len(first_row))
        inverse = number[rows]
    return inverse, np.bincount(inverse), first_row


def _distinct_integers(values: np.ndarray):
    by_value = np.argsort(values)
    starts, counts = _runs(values[by_value])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[by_value] = np.repeat(np.arange(len(counts)), counts)
    return inverse, counts, np.minimum.reduceat(by_value, starts)


def _runs(ordered: np.ndarray):
    """Where each run of equal values starts in a sorted, non-empty array,
    and how long it is."""
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    return starts, np.diff(np.append(starts, len(ordered)))


def _choose_dictionary(n: int, counts: np.ndarray, per_value: int):
    """The dictionary width minimizing codes + dict + exceptions, among the
    widths up to the first that holds every distinct value (each stored
    value at ``per_value`` bytes: the mean, for strings). Returns the
    width, the entries it holds -- the most frequent values -- and that
    minimum, which leaves out compulsory exceptions only."""
    widths = np.arange(1, min(
        _MAX_DICT_WIDTH, max(1, (len(counts) - 1).bit_length())) + 1)
    dict_sizes = np.minimum(len(counts), 1 << widths)
    covered = np.append(0, np.cumsum(-np.sort(-counts)))[dict_sizes]
    estimates = ((n * widths + 7) // 8
                 + (dict_sizes + n - covered) * per_value)
    best = int(np.argmin(estimates))  # the narrowest of equals
    return int(widths[best]), int(dict_sizes[best]), int(estimates[best])


class PDictScheme(CompressionScheme):
    """Patched dictionary encoding for strings and low-cardinality ints."""

    name = "PDICT"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        # numbers are stored as int64: a float would come back truncated
        return len(values) > 0 and (
            ctype.is_string or ctype.is_integer or ctype.name == "bool")

    def analyse(self, block: RawBlock) -> Optional[Analysis]:
        if not self.can_compress(block.values, block.ctype):
            return None
        n = block.count
        header = struct.calcsize(_HEADER)
        if block.ctype.is_string:
            inverse, counts, first_row = _distinct_strings(block.values)
            sizes = block.text.sizes
            per_value = 4 + int((sizes[first_row] - 4).mean())
        else:
            sizes = None
            per_value = 8
            if block.beat is not None:
                # how often each distinct value occurs takes one plain
                # sort, and is enough to bound the size from below
                _, _, bound = _choose_dictionary(
                    n, _runs(np.sort(block.int64))[1], per_value)
                if header + bound >= block.beat:
                    return None
            inverse, counts, first_row = _distinct_integers(block.int64)
        width, dict_size, _ = _choose_dictionary(n, counts, per_value)
        # Counter.most_common() order: count descending, ties by first
        # appearance. Counts up to 65,535 sort by radix as uint16.
        by_appearance = np.argsort(first_row)
        rarity = (counts.max() - counts).astype(np.min_scalar_type(n))
        ordered = by_appearance[
            np.argsort(rarity[by_appearance], kind="stable")]
        code_of = np.empty(len(ordered), dtype=np.int64)
        code_of[ordered] = np.arange(len(ordered))
        codes = code_of[inverse]
        chain = build_patch_chain(codes >= dict_size, width)
        # the dictionary, as the rows its entries are taken from
        entries = first_row[ordered[:dict_size]]
        if sizes is None:
            stored = 8 * (dict_size + chain.size)
        else:
            stored = int(sizes[entries].sum() + sizes[chain].sum())
        size = header + stored + bitpack.packed_size(n, width)
        return Analysis(size, (width, entries, codes, chain))

    def emit(self, block: RawBlock, analysis: Analysis) -> bytes:
        width, entries, codes, chain = analysis.plan
        stored = np.concatenate([entries, chain])
        if block.ctype.is_string:
            stored = block.text.take(stored)
        else:
            stored = block.int64[stored].astype("<i8").tobytes()
        first = link_chain(codes, chain)
        header = struct.pack(_HEADER, width, first, chain.size, len(entries))
        return header + stored + bitpack.pack_bits(codes, width)

    def decompress(self, block: CompressedBlock, ctype: ColumnType):
        view = memoryview(block.data)
        width, first, n_exc, n_dict = struct.unpack_from(_HEADER, view)
        offset = struct.calcsize(_HEADER)
        # the dictionary's entries, then the exceptions
        stored, offset = _decode_values(view, offset, n_dict + n_exc, ctype)
        strings = ctype.is_string
        codes = bitpack.unpack_bits(view[offset:], width, block.count,
                                    np.int32 if strings else np.intp)
        positions = patch_positions(codes, first, n_exc)
        if strings:
            # exceptions are entries too, numbered past the dictionary's;
            # entries are stored by frequency and an exception may repeat
            # one, so each stored string's code is looked up (or they are
            # sorted and made distinct), the rows' codes following
            if n_exc:
                codes[positions] = np.arange(n_dict, n_dict + n_exc)
            entries, code_of = ((block.shared and block.shared(stored))
                                or sorted_distinct(stored))
            return DictColumn(code_of.take(codes), entries)
        # the exceptions' slots hold gap links: any in-bounds entry will
        # do until they are patched
        codes[positions] = 0
        out = stored[:n_dict][codes]
        out[positions] = stored[n_dict:]
        return out


register_scheme(PDictScheme())
