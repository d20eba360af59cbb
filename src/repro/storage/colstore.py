"""PartitionStore: the file-per-partition block-chunk layout on HDFS.

All columns of a table partition share one sequence of **chunk files**
(``<base>/chunk-00000.dat``), each holding up to ``blocks_per_chunk``
compressed blocks; only the newest chunk is open for writing. Space is
reclaimed at chunk granularity -- the only way to "write in the middle" of
an append-only filesystem. Partially-filled trailing blocks go to a
separate *partial chunk file* which the next append merges into full blocks
and deletes (paper section 3, "File-per-partition Layout").

Every file lives under ``<db>/<table>/part-NNNN/``, which is how the
instrumented HDFS placement policy finds its partition.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import Config
from repro.common.errors import StorageError
from repro.common.types import ColumnType
from repro.compression import (
    SCHEMES,
    CompressedBlock,
    compress_best,
    decompress,
)
from repro.compression.base import StringImage, concat_stored, extended
from repro.engine.batch import Batch, DictColumn, batch_bytes, sorted_distinct
from repro.engine.profile import kernel
from repro.hdfs.cluster import HdfsCluster
from repro.storage.buffer import BufferPool
from repro.storage.minmax import ColumnRanges, MinMaxIndex
from repro.storage.schema import TableSchema

_SCHEME_IDS = {"RAW": 0, "PFOR": 1, "PFOR-DELTA": 2, "PDICT": 3, "LZ": 4}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_IDS.items()}
_BLOCK_HEADER = "<BII"  # scheme id, tuple count, payload length
_HEADER = struct.Struct(_BLOCK_HEADER)
#: what a PartitionStore knows about its files (``_reset_catalog`` sets it)
_CATALOG = ("n_stable", "blocks", "minmax", "_open_chunk",
            "_open_chunk_blocks", "_partial_file", "_partial_refs")


@dataclass
class BlockRef:
    """Catalog entry for one stored block (kept in the WAL, not the file)."""

    column: str
    row_start: int
    n_rows: int
    path: str
    offset: int
    length: int
    scheme: str
    #: uncompressed size of the block's values (0 in pre-existing WAL
    #: records written before compression accounting existed)
    raw_bytes: int = 0

    @property
    def row_end(self) -> int:
        return self.row_start + self.n_rows


def rows_per_block(ctype: ColumnType, config: Config) -> int:
    """Target tuples per block so a block approaches ``block_size`` bytes.

    Computed from the uncompressed width: thin (well-compressing) columns
    thus pack many values per block -- the behaviour Figure 1 credits for
    beating row-count-split Parquet/ORC row groups.
    """
    return max(16, config.block_size // max(1, ctype.width))


#: a column with more distinct strings than one PDICT block can hold stops
#: sharing a dictionary between its blocks (each keeps its own)
SHARED_DICTIONARY_LIMIT = 1 << 16


class ColumnDictionaries:
    """One dictionary per string column, shared by every PDICT block of
    every partition of a table.

    A PDICT block decodes over it (:meth:`encode` gives its stored
    strings' codes), so whatever is read from the column -- any block,
    any partition, any query -- arrives over the *same object*:
    concatenating pieces is concatenating codes, vectors from different
    scan streams meet at an exchange without a merge, what an expression
    worked out for the entries holds for the next scan too, and an
    aggregate grouping on the column indexes by its codes. The dictionary
    only grows, with the column's distinct strings: a block with strings
    it does not hold yet replaces it with a larger one (a new object --
    codes shift; columns over the old one keep it).
    """

    def __init__(self):
        #: column -> (dictionary, its str -> code), None once over the limit
        self._columns: Dict[str, Optional[Tuple[np.ndarray, dict]]] = {}

    def encode(self, name: str,
               strings: list) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The dictionary of column ``name`` and the int32 codes of
        ``strings`` (a block's stored ones) in it; None once the column
        holds more than :data:`SHARED_DICTIONARY_LIMIT` distinct strings
        (its blocks keep their own dictionaries)."""
        shared = self._columns.get(name, ())  # () until the first block
        if shared is None:
            return None
        known: list = []
        if shared:
            dictionary, code_of = shared
            codes = np.fromiter(map(code_of.get, strings, repeat(-1)),
                                np.int32, len(strings))
            if len(codes) == 0 or codes.min() >= 0:
                return dictionary, codes
            known = dictionary.tolist()
        dictionary, _ = sorted_distinct(known + strings)
        if len(dictionary) > SHARED_DICTIONARY_LIMIT:
            self._columns[name] = None
            return None
        self._columns[name] = (dictionary, dict(zip(dictionary.tolist(),
                                                    range(len(dictionary)))))
        return self.encode(name, strings)


class BlockCursor:
    """Reads one column of a partition by row ranges, asked for in
    ascending order, each of which may span several of its blocks.

    It reads the blocks the column had when the cursor was made (a later
    append does not move them). The blocks a range needs are fetched
    together and decoded as runs -- one per stretch of one scheme,
    usually all of them (:meth:`PartitionStore._read_run`) -- and the
    range is slices of those, joined with :func:`concat_stored` (a coded
    string column stays coded). Each block is decoded once: the block a
    range ends inside of is kept for the next range, in arrays of its
    own when its run holds more blocks, so that it pins no more than
    :attr:`kept_bytes` says.
    """

    def __init__(self, store: "PartitionStore", name: str,
                 reader: Optional[str], pool: Optional[BufferPool],
                 stored: bool = False):
        self._read = partial(store._read_run, reader=reader, pool=pool,
                             stored=stored)
        self._refs = list(store.blocks[name])
        self._starts = [ref.row_start for ref in self._refs]
        self._at = -1
        self._values = None
        #: decoded bytes the cursor keeps for a later read
        self.kept_bytes = 0

    def read(self, lo: int, hi: int):
        first = bisect_right(self._starts, lo) - 1
        last = bisect_left(self._starts, hi) - 1
        parts = []
        if first == self._at:  # starts in the kept block
            start = self._starts[first]
            parts.append(self._values[lo - start: hi - start])
            first += 1
        if first <= last:
            end = self._starts[first]
            for values in self._read(self._refs[first: last + 1]):
                start, end = end, end + len(values)
                parts.append(values[max(lo, start) - start: hi - start])
        if hi >= self._refs[last].row_end:
            self._at, self._values, self.kept_bytes = -1, None, 0
        elif last != self._at:
            at = self._starts[last] - start
            self._at = last
            self._values = _detached(values[at:]) if at else values
            self.kept_bytes = batch_bytes(Batch({"": self._values},
                                                len(self._values)))
        return parts[0] if len(parts) == 1 else concat_stored(parts)


def _detached(values):
    """``values``, the tail of a run, in arrays of their own."""
    if isinstance(values, DictColumn):
        return DictColumn(values.codes.copy(), values.dictionary)
    if isinstance(values, StringImage):
        sizes = values.sizes.copy()
        return StringImage(values.packed, np.cumsum(sizes) - sizes, sizes)
    return values.copy()


class PartitionStore:
    """Columnar storage for one table partition."""

    def __init__(self, hdfs: HdfsCluster, base_path: str,
                 schema: TableSchema, config: Config,
                 dictionaries: Optional[ColumnDictionaries] = None):
        self.hdfs = hdfs
        #: the table's, when the table made this store; else its own
        self.dictionaries = dictionaries or ColumnDictionaries()
        self.base_path = base_path.rstrip("/")
        self.schema = schema
        self.config = config
        self._next_chunk = 0
        self._next_partial = 0
        self._reset_catalog()

    def _reset_catalog(self) -> None:
        """An empty partition; file numbering goes on, so files written
        from here never take the name of one written before."""
        self.n_stable = 0
        #: per column in row order, each block starting where the one
        #: before it ends: blocks are only ever appended past the last row
        #: or (a partial block) taken off the end again
        self.blocks: Dict[str, List[BlockRef]] = {
            c: [] for c in self.schema.column_names
        }
        self.minmax = MinMaxIndex()
        self._open_chunk: Optional[str] = None
        self._open_chunk_blocks = 0
        self._partial_file: Optional[str] = None
        self._partial_refs: Dict[str, BlockRef] = {}

    # ------------------------------------------------------------------ append

    def append(self, columns: Dict[str, np.ndarray],
               writer: Optional[str] = None) -> int:
        """Append rows (given column-wise); returns the new n_stable.

        A string column may come as Python strings, dictionary-coded or
        as a :class:`StringImage` (what :meth:`read_column` reads with
        ``stored=True``). Existing partial blocks are read back in their
        stored form, merged in front of the new data, re-blocked, and the
        old partial chunk file is freed.
        """
        arrays = self._validated(columns)
        n_new = len(next(iter(arrays.values()))) if arrays else 0
        if n_new == 0:
            return self.n_stable

        merged = self._absorb_partials(arrays, writer)
        new_partials: Dict[str, Tuple[int, np.ndarray]] = {}

        for name in self.schema.column_names:
            ctype = self.schema.ctype(name)
            start, data = merged[name]
            per_block = rows_per_block(ctype, self.config)
            pos = 0
            while len(data) - pos >= per_block:
                chunk = data[pos: pos + per_block]
                self._write_block(name, ctype, chunk, start + pos, writer,
                                  partial=False)
                pos += per_block
            if pos < len(data):
                new_partials[name] = (start + pos, data[pos:])

        if new_partials:
            self._write_partials(new_partials, writer)
        self.n_stable += n_new
        return self.n_stable

    def _validated(self, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        missing = set(self.schema.column_names) - set(columns)
        if missing:
            raise StorageError(f"append missing columns: {sorted(missing)}")
        arrays = {}
        lengths = set()
        for name in self.schema.column_names:
            arr = columns[name]
            if not isinstance(arr, (DictColumn, StringImage)):
                arr = np.asarray(arr, dtype=self.schema.ctype(name).dtype)
            arrays[name] = arr
            lengths.add(len(arr))
        if len(lengths) > 1:
            raise StorageError(f"ragged append: lengths {sorted(lengths)}")
        return arrays

    def _absorb_partials(self, arrays, writer):
        """``(row_start, values)`` to write per column: its previously
        partial rows in front of the new ones. Thin columns pack more rows
        per block, so each column's partial starts at its own row. Frees
        the old partial file."""
        merged = {}
        for name in self.schema.column_names:
            ref = self._partial_refs.get(name)
            if ref is None:
                merged[name] = (self.n_stable, arrays[name])
                continue
            old, = self._read_run([ref], reader=writer, stored=True)
            merged[name] = (ref.row_start, extended(old, arrays[name]))
            self.blocks[name].pop()  # the partial block is the last one
            ranges = self.minmax.ranges[name]
            keep = np.searchsorted(ranges.starts, ref.row_start)
            self.minmax.ranges[name] = ColumnRanges(*(a[:keep] for a in ranges))
        if self._partial_file is not None:
            self.hdfs.delete(self._partial_file)
        self._partial_file = None
        self._partial_refs = {}
        return merged

    def _write_block(self, name: str, ctype: ColumnType, values,
                     row_start: int, writer, partial: bool) -> None:
        block = compress_best(values, ctype)
        payload = self._serialize_block(block)
        if partial:
            path = self._partial_file
        else:
            path = self._chunk_for_writing(writer)
            self._open_chunk_blocks += 1
        offset = self.hdfs.file_size(path)
        self.hdfs.append(path, payload, writer)
        ref = BlockRef(name, row_start, len(values), path, offset,
                       len(payload), block.scheme, block.raw_bytes)
        self.blocks[name].append(ref)
        if partial:
            self._partial_refs[name] = ref
        self.minmax.add_range(name, row_start, values)

    def _write_partials(self, partials, writer) -> None:
        self._partial_file = (
            f"{self.base_path}/partial-{self._next_partial:04d}.dat"
        )
        self._next_partial += 1
        self.hdfs.create(self._partial_file, writer)
        for name, (row_start, values) in partials.items():
            self._write_block(name, self.schema.ctype(name), values,
                              row_start, writer, partial=True)

    def _chunk_for_writing(self, writer) -> str:
        if (self._open_chunk is None
                or self._open_chunk_blocks >= self.config.blocks_per_chunk):
            self._open_chunk = (
                f"{self.base_path}/chunk-{self._next_chunk:05d}.dat"
            )
            self._next_chunk += 1
            self._open_chunk_blocks = 0
            self.hdfs.create(self._open_chunk, writer)
        return self._open_chunk

    def _serialize_block(self, block: CompressedBlock) -> bytes:
        header = struct.pack(
            _BLOCK_HEADER, _SCHEME_IDS[block.scheme], block.count,
            len(block.data),
        )
        return header + block.data

    # ------------------------------------------------------------------- reads

    def _read_run(self, refs: Sequence[BlockRef],
                  reader: Optional[str] = None,
                  pool: Optional[BufferPool] = None,
                  stored: bool = False) -> list:
        """The rows of ``refs`` -- consecutive blocks of one column -- as
        one column per run (stretch of blocks of one scheme), in row
        order. Every block is fetched (through ``pool`` when given), then
        each run is decoded with one :func:`decompress` call: a string
        column's PDICT blocks over the column's shared dictionary, its LZ
        and RAW blocks -- ``stored`` -- as one :class:`StringImage`."""
        name = refs[0].column
        ctype = self.schema.ctype(name)
        with kernel("scan.read_block") as k:
            runs: List[List[CompressedBlock]] = []
            for ref in refs:
                if pool is not None:
                    raw = pool.read(ref.path, ref.offset, ref.length, reader)
                else:
                    raw = self.hdfs.read(ref.path, ref.offset, ref.length,
                                         reader)
                scheme_id, count, payload_len = _HEADER.unpack_from(raw)
                # a view into the pooled bytes, not a copy
                payload = memoryview(raw)[_HEADER.size:]
                if len(payload) != payload_len:
                    raise StorageError(
                        f"corrupt block in {ref.path}@{ref.offset}")
                k.account(rows=count, nbytes=ref.length)
                block = CompressedBlock(_SCHEME_NAMES[scheme_id], count,
                                        payload)
                if runs and runs[-1][0].scheme == block.scheme:
                    runs[-1].append(block)
                else:
                    runs.append([block])
            parts = []
            for run in runs:
                if ctype.is_string and run[0].scheme == "PDICT":
                    run[0].shared = partial(self.dictionaries.encode, name)
                elif ctype.is_string and stored:
                    parts.append(SCHEMES[run[0].scheme].image(run))
                    continue
                # the nested decode.<scheme> kernel subtracts itself from
                # this frame, so read_block seconds stay IO+header-only
                parts.append(decompress(run, ctype))
        return parts

    def read_column(self, name: str,
                    ranges: Optional[Sequence[Tuple[int, int]]] = None,
                    reader: Optional[str] = None,
                    pool: Optional[BufferPool] = None,
                    stored: bool = False) -> np.ndarray:
        """Read (a union of row ranges of) one column.

        Only blocks overlapping the requested ranges are read -- this is
        where MinMax skipping and the scan's row filter turn into IO and
        decode savings -- and the blocks of one range are decoded as one
        run (:class:`BlockCursor`). A string column comes back
        dictionary-coded (one :class:`~repro.engine.batch.DictColumn`,
        over the dictionary its blocks share) when every block read was
        PDICT, as a plain object array as soon as one was LZ or RAW --
        or, ``stored`` (a rewrite, which only re-encodes the strings), as
        a :class:`StringImage`: the LZ and RAW blocks' payloads as they
        are, the PDICT blocks' entries in use encoded once, no row a
        Python ``str``.
        """
        if ranges is None:
            ranges = [(0, self.n_stable)]
        cursor = BlockCursor(self, name, reader, pool, stored)
        pieces = [cursor.read(start, end) for start, end in ranges
                  if start < end]
        if not pieces:
            return np.empty(0, dtype=self.schema.ctype(name).dtype)
        return pieces[0] if len(pieces) == 1 else concat_stored(pieces)

    def blocks_overlapping(self, name: str,
                           ranges: Sequence[Tuple[int, int]]) -> int:
        """How many of the column's blocks hold a row of ``ranges``
        (ascending and disjoint) -- what reading them would decode."""
        starts = [ref.row_start for ref in self.blocks[name]]
        count = done = 0
        for start, end in ranges:
            if start < end:
                lo = max(bisect_right(starts, start) - 1, done)
                done = max(done, bisect_left(starts, end))
                count += max(0, done - lo)
        return count

    # --------------------------------------------------------------- maintenance

    def rewrite(self, columns: Dict[str, np.ndarray],
                writer: Optional[str] = None) -> None:
        """Replace the partition contents (update propagation).

        HDFS cannot overwrite, so the table is written fully elsewhere and
        the old chunk files are deleted -- the paper's pre-chunk-decision
        behaviour. Only then: an error while writing removes the new files
        and leaves the old image, catalog and MinMax as they were.
        """
        old_files = self.file_paths()
        old_catalog = {name: getattr(self, name) for name in _CATALOG}
        self._reset_catalog()
        try:
            self.append(columns, writer)
        except BaseException:
            for path in set(self.file_paths()) - set(old_files):
                self.hdfs.delete(path)
            for name, value in old_catalog.items():
                setattr(self, name, value)
            raise
        for path in old_files:
            self.hdfs.delete(path)

    def delete_all(self) -> None:
        for path in self.file_paths():
            self.hdfs.delete(path)
        self._reset_catalog()

    # ----------------------------------------------------------------- statistics

    def file_paths(self) -> List[str]:
        return self.hdfs.list_files(self.base_path + "/")

    def total_bytes(self) -> int:
        return sum(self.hdfs.file_size(p) for p in self.file_paths())

    def bytes_per_column(self) -> Dict[str, int]:
        return {
            name: sum(ref.length for ref in refs)
            for name, refs in self.blocks.items()
        }

    def compression_stats(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Raw vs encoded bytes per (column, scheme), from live refs.

        Computed on demand so partial-block absorption and rewrites never
        double-count; ``vh$compression`` aggregates this across
        partitions into per-column compression ratios.
        """
        out: Dict[Tuple[str, str], Dict[str, int]] = {}
        for name, refs in self.blocks.items():
            for ref in refs:
                entry = out.setdefault(
                    (name, ref.scheme),
                    {"blocks": 0, "raw_bytes": 0, "encoded_bytes": 0},
                )
                entry["blocks"] += 1
                entry["raw_bytes"] += ref.raw_bytes
                entry["encoded_bytes"] += ref.length
        return out
