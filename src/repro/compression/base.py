"""Scheme registry, block container and the shared patching machinery.

The "Patched" family (PFOR, PFOR-DELTA, PDICT) shares one trick: values are
stored as thin fixed-bitwidth codes; values that do not fit are *exceptions*
stored uncompressed later in the block, and the code slot of each exception
holds the hop distance to the next exception. Decoding first inflates all
codes branch-free, then walks the chain once to collect the (typically few)
exception positions and patches them with one scatter.

Encoding is two steps per scheme. ``analyse`` makes one numpy pass over the
block and returns the *exact* size the scheme would encode it to (or
declines); ``emit`` writes the bytes. :func:`compress_best` sizes a block
with every applicable scheme and emits the winner only. The byte format of
every scheme is frozen: ``tests/reference_encoders.py`` holds the per-value
encoders that defined it and ``tests/test_encode_differential.py``
compares every emitted byte against them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CompressionError
from repro.common.types import ColumnType
from repro.engine.batch import DictColumn, concat_columns
from repro.engine.profile import kernel


#: 1 byte scheme id + 4 bytes count in front of the payload, mirroring a
#: real block header
BLOCK_HEADER_BYTES = 5

#: the length word in front of every string's UTF-8 bytes
_LENGTH = struct.Struct("<I")


@dataclass
class CompressedBlock:
    """One compressed column block.

    ``data`` is the scheme-specific serialized payload; ``size_bytes`` is the
    on-disk footprint used by storage and by the Figure-1c size benchmark.
    """

    scheme: str
    count: int
    data: bytes
    ctype_name: str = ""
    #: size of the values uncompressed (set by :func:`compress_best`)
    raw_bytes: int = 0
    #: a PDICT string block being read: the column's shared dictionary it
    #: decodes over, as a function from stored strings to ``(dictionary,
    #: their int32 codes in it)`` or None (then over its own strings)
    shared: Optional[Callable[[list], Optional[tuple]]] = None

    @property
    def size_bytes(self) -> int:
        return BLOCK_HEADER_BYTES + len(self.data)


class StringImage:
    """Strings as their length-prefixed UTF-8 images -- RAW's payload, LZ's
    input and where PDICT takes its dictionary entries and exceptions from.

    The images sit in one buffer, ``data``; every row has its place in it
    (``starts``, and ``sizes`` with the length word). Rows need not be
    adjacent or in buffer order, and several may share one image: slicing,
    taking and extending moves places, not bytes, so a string goes from
    one block to another without ever becoming a Python ``str``.
    """

    def __init__(self, data: bytes, starts: np.ndarray, sizes: np.ndarray):
        self.data = data
        self.starts = starts
        self.sizes = sizes

    @classmethod
    def of_strings(cls, values) -> "StringImage":
        """Python strings (a bulk load's rows, a PDT's values, a
        dictionary's entries), encoded once, in order."""
        texts = (values.tolist() if isinstance(values, np.ndarray)
                 else list(values))
        try:
            joined = "".join(texts)
        except TypeError:  # not all of them str
            texts = list(map(str, texts))
            joined = "".join(texts)
        payload = joined.encode("utf-8")
        if len(payload) == len(joined):  # ASCII: a character is a byte
            lengths = map(len, texts)
        else:
            lengths = map(len, map(str.encode, texts))
        sizes = np.fromiter(lengths, np.int64, len(texts)) + 4
        starts = np.cumsum(sizes) - sizes
        out = np.empty(int(sizes.sum()), dtype=np.uint8)
        words = (starts[:, None] + np.arange(4)).reshape(-1)
        is_text = np.ones(out.size, dtype=bool)
        is_text[words] = False
        out[words] = (sizes - 4).astype("<u4").view(np.uint8)
        out[is_text] = np.frombuffer(payload, np.uint8)
        return cls(out.tobytes(), starts, sizes)

    @classmethod
    def of_payload(cls, data: bytes, count: int) -> "StringImage":
        """The ``count`` rows a RAW payload (or an inflated LZ one) holds:
        its bytes as they are, each row's place found by one walk of the
        length words."""
        data = bytes(data)
        starts = np.empty(count, dtype=np.int64)
        unpack = _LENGTH.unpack_from
        offset = 0
        for i in range(count):
            starts[i] = offset
            offset += 4 + unpack(data, offset)[0]
        if offset != len(data):
            raise CompressionError("string payload and row count disagree")
        return cls(data, starts, np.diff(starts, append=offset))

    @classmethod
    def of(cls, values) -> "StringImage":
        """``values`` -- an image, a coded column or Python strings -- as
        an image; of a coded column only the entries in use are encoded."""
        if isinstance(values, StringImage):
            return values
        if isinstance(values, DictColumn):
            values = values.compacted()
            return cls.of_strings(values.dictionary.tolist())[values.codes]
        return cls.of_strings(values)

    @staticmethod
    def concat(parts: Sequence["StringImage"]) -> "StringImage":
        """The rows of ``parts``, in order, over one buffer (a buffer
        several parts share is copied once)."""
        at: Dict[int, int] = {}  # buffer -> where it starts in the join
        buffers = []
        size = 0
        for part in parts:
            if id(part.data) not in at:
                at[id(part.data)] = size
                buffers.append(part.data)
                size += len(part.data)
        return StringImage(
            b"".join(buffers),
            np.concatenate([p.starts + at[id(p.data)] for p in parts]),
            np.concatenate([p.sizes for p in parts]))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, key) -> "StringImage":
        return StringImage(self.data, self.starts[key], self.sizes[key])

    def take(self, rows: np.ndarray) -> bytes:
        """The images of ``rows``, concatenated in that order."""
        sizes = self.sizes[rows]
        # byte j of the output comes from starts[row] + (j - row's offset
        # in the output)
        shift = self.starts[rows] - (np.cumsum(sizes) - sizes)
        source = np.repeat(shift, sizes)
        source += np.arange(source.size)
        return np.frombuffer(self.data, np.uint8)[source].tobytes()

    @cached_property
    def packed(self) -> bytes:
        """Every row's image, in row order: RAW's payload."""
        if (len(self.data) == self.sizes.sum()
                and (self.starts == np.cumsum(self.sizes) - self.sizes).all()):
            return self.data
        return self.take(np.arange(len(self)))

    @cached_property
    def texts(self) -> List[bytes]:
        """Every row's UTF-8 bytes: equal exactly when the strings are,
        and ordered as they are (UTF-8 keeps code point order)."""
        data = self.data
        return [data[s + 4: s + z] for s, z in
                zip(self.starts.tolist(), self.sizes.tolist())]

    def extremes(self) -> Tuple[str, str]:
        """The least and the greatest string of a non-empty image."""
        texts = self.texts
        return str(min(texts), "utf-8"), str(max(texts), "utf-8")

    def strings(self) -> np.ndarray:
        """Every row as a Python ``str``."""
        out = np.empty(len(self), dtype=object)
        out[:] = [str(text, "utf-8") for text in self.texts]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.strings()
        return out if dtype is None else out.astype(dtype, copy=False)


def concat_stored(parts: Sequence):
    """One column of ``parts`` in order, as storage reads them: an image
    as soon as one part is (the other parts' strings join it), else as
    :func:`~repro.engine.batch.concat_columns` joins them."""
    if any(isinstance(part, StringImage) for part in parts):
        return StringImage.concat([StringImage.of(part) for part in parts])
    return concat_columns(parts)


def extended(column, values):
    """``column``'s rows, then ``values`` (plain, as a PDT holds them), in
    ``column``'s form: a coded column's dictionary or an image's buffer
    takes the new strings, and no old row is decoded."""
    if isinstance(column, DictColumn):
        column, codes = column.with_values(values)
        return DictColumn(np.concatenate([column.codes, codes]),
                          column.dictionary)
    if isinstance(column, StringImage):
        return StringImage.concat([column, StringImage.of(values)])
    column = np.asarray(column)
    return np.concatenate([column, np.asarray(values, dtype=column.dtype)])


class RawBlock:
    """One uncompressed block as the analyses see it: the values, the
    column type and the views several schemes need, each built once.

    A string block's values are Python strings (a bulk load's), a coded
    column or a :class:`StringImage` (a rewrite's, as read from the
    blocks): the schemes see all three through :attr:`text`."""

    def __init__(self, values, ctype: ColumnType):
        self.values = values
        self.ctype = ctype
        self.count = len(values)
        #: the smallest payload an earlier scheme sized this block to
        #: (:func:`compress_best` keeps it): an analysis may decline as
        #: soon as it knows it cannot get below
        self.beat: Optional[int] = None

    @cached_property
    def int64(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.int64)

    @cached_property
    def text(self) -> StringImage:
        return StringImage.of(self.values)

    @property
    def raw_size(self) -> int:
        """Bytes of :attr:`image`, without building a numeric one."""
        if self.ctype.is_string:
            return int(self.text.sizes.sum())
        return self.count * self.ctype.dtype.itemsize

    @cached_property
    def image(self) -> bytes:
        """The values uncompressed: RAW's payload and LZ's input."""
        if self.ctype.is_string:
            return self.text.packed
        return np.ascontiguousarray(
            self.values, dtype=self.ctype.dtype).tobytes()


@dataclass
class Analysis:
    """What a scheme's pass over a block found."""

    #: exactly ``len(CompressedBlock.data)`` of the block ``emit`` writes
    size: int
    #: whatever the scheme's ``emit`` needs from the pass
    plan: Any = None


class CompressionScheme:
    """Interface implemented by every compression scheme."""

    name: str = "abstract"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        raise NotImplementedError

    def analyse(self, block: RawBlock) -> Optional[Analysis]:
        """Size ``block`` in one pass; None when the scheme cannot hold it."""
        raise NotImplementedError

    def emit(self, block: RawBlock, analysis: Analysis) -> bytes:
        """The payload ``analysis`` sized."""
        raise NotImplementedError

    def compress(self, values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
        block = RawBlock(np.asarray(values), ctype)
        analysis = self.analyse(block)
        if analysis is None:
            raise CompressionError(f"{self.name} cannot encode this block")
        return CompressedBlock(self.name, block.count,
                               self.emit(block, analysis))

    def decompress(self, block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
        raise NotImplementedError


# --------------------------------------------------------------------------
# Patch chains (shared by PFOR / PFOR-DELTA / PDICT)
# --------------------------------------------------------------------------

def build_patch_chain(is_exception: np.ndarray, width: int) -> np.ndarray:
    """Return exception positions, inserting compulsory exceptions.

    The gap between consecutive exceptions must fit in ``width`` bits, since
    the gap is stored in the code slot. Where the natural gap is too large
    "compulsory" exceptions are inserted every ``max_gap`` slots (values
    that would have fit but are stored as exceptions anyway) -- the classic
    PFOR trick.
    """
    max_gap = (1 << width) - 1
    natural = np.flatnonzero(is_exception)
    if natural.size < 2:
        return natural
    compulsory = (np.diff(natural) - 1) // max_gap
    if not compulsory.any():
        return natural
    # each natural exception, then the compulsory ones that follow it
    run = np.append(compulsory + 1, 1)
    hops = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)
    return np.repeat(natural, run) + hops * max_gap


def link_chain(codes: np.ndarray, chain: np.ndarray) -> int:
    """Overwrite the chain's code slots, in place, with the hop to the next
    exception (0 at the last); returns the first exception's position, -1
    when the block has none."""
    if chain.size == 0:
        return -1
    codes[chain[:-1]] = np.diff(chain)
    codes[chain[-1]] = 0
    return int(chain[0])


def patch_positions(codes: np.ndarray, first_exception: int,
                    n_exceptions: int) -> np.ndarray:
    """Walk the exception chain once; returns every exception's position.

    ``codes`` must still hold the gap links, i.e. call this on the freshly
    unpacked codes. The values are then patched with one bulk scatter.
    """
    positions = np.empty(n_exceptions, dtype=np.intp)
    pos = first_exception
    for i in range(n_exceptions):
        positions[i] = pos
        pos += codes.item(pos)
    return positions


# --------------------------------------------------------------------------
# Registry and convenience entry points
# --------------------------------------------------------------------------

SCHEMES: Dict[str, CompressionScheme] = {}


def register_scheme(scheme: CompressionScheme) -> CompressionScheme:
    SCHEMES[scheme.name] = scheme
    return scheme


#: A dictionary scheme that achieves at least this ratio over raw counts as
#: "dictionary-compressible"; only otherwise is the expensive-to-decode
#: general-purpose codec considered. This is VectorH's policy: lightweight
#: schemes everywhere, LZ only for non-dictionary-compressible strings
#: (paper sections 2 and 8).
DICT_COMPRESSIBLE_RATIO = 0.5


def compress_best(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
    """Size the block with every applicable scheme and emit the best.

    Mirrors Vectorwise's per-block automatic scheme selection: smallest
    block wins (the earlier-registered scheme on a tie), except that
    general-purpose compression (slow branchy decode) is excluded whenever
    a lightweight scheme already achieves real compression -- and since
    its size is only known by running it, it is not even run then.
    Strings may come in any form :class:`RawBlock` takes: the bytes are
    the same.
    """
    if not isinstance(values, (DictColumn, StringImage)):
        values = np.asarray(values)
    block = RawBlock(values, ctype)
    sized: Dict[str, Analysis] = {}

    def size_with(scheme: CompressionScheme) -> None:
        if scheme.can_compress(block.values, ctype):
            analysis = scheme.analyse(block)
            if analysis is not None:
                sized[scheme.name] = analysis
                if block.beat is None or analysis.size < block.beat:
                    block.beat = analysis.size

    for scheme in SCHEMES.values():
        if scheme.name != "LZ":
            size_with(scheme)
    raw = sized.get("RAW")
    lightweight_best = min(
        (a.size for n, a in sized.items() if n != "RAW"), default=None)
    if "LZ" in SCHEMES and not (
            raw is not None and lightweight_best is not None
            and lightweight_best + BLOCK_HEADER_BYTES
            < DICT_COMPRESSIBLE_RATIO * (raw.size + BLOCK_HEADER_BYTES)):
        size_with(SCHEMES["LZ"])
    if not sized:
        raise CompressionError(f"no scheme can compress column type {ctype}")
    best = min((n for n in SCHEMES if n in sized), key=lambda n: sized[n].size)
    return CompressedBlock(best, block.count,
                           SCHEMES[best].emit(block, sized[best]),
                           ctype.name, block.raw_size)


def decompress(block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
    """Decompress a block with the scheme that produced it."""
    scheme = SCHEMES.get(block.scheme)
    if scheme is None:
        raise CompressionError(f"unknown scheme {block.scheme!r}")
    # attributes to whichever operator is currently executing (usually a
    # scan), nesting under its scan.read_block kernel
    with kernel(f"decode.{block.scheme.lower()}",
                rows=block.count, nbytes=len(block.data)):
        return scheme.decompress(block, ctype)
