"""ORC-like and Parquet-like storage: PAX row groups on simulated HDFS.

Both formats follow the paper's characterization (sections 2-3):

* row groups split by **row count** (not by compressed size), so highly
  compressible "thin" columns shatter into many small segments;
* **general-purpose compression applied to everything** (zlib standing in
  for Snappy), adding decompression cost to every scan;
* **value-at-a-time decode** -- the reader yields python values one by one,
  as the paper found ORC/Parquet readers do, instead of vectorized
  inflation;
* MinMax statistics per row group, but:
  - the ORC-like reader skips *decompression* yet still performs the IO
    (what the paper measured for Presto/ORC);
  - the Parquet-like reader stores MinMax at a position only found while
    parsing the header, so deciding to skip already forces the block read.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.hdfs.cluster import HdfsCluster


@dataclass
class _Segment:
    """One column's compressed bytes within a row group."""

    offset: int
    length: int
    min_value: object
    max_value: object


@dataclass
class _RowGroup:
    row_start: int
    n_rows: int
    segments: Dict[str, _Segment]


def _encode_values(values: np.ndarray) -> bytes:
    """Dictionary-or-plain, then general-purpose compressed (the Snappy
    habit). Returns bytes whose decode is inherently value-at-a-time."""
    return zlib.compress(pickle.dumps(list(values), protocol=4), 1)


def _decode_values(data: bytes) -> List:
    return pickle.loads(zlib.decompress(data))


class _PaxTable:
    """Shared machinery; subclasses differ in skipping behaviour."""

    format_name = "pax"
    rows_per_group = 8192

    def __init__(self, hdfs: HdfsCluster, path: str,
                 rows_per_group: Optional[int] = None,
                 node: Optional[str] = None):
        self.hdfs = hdfs
        self.path = path
        self.node = node
        if rows_per_group:
            self.rows_per_group = rows_per_group
        self.groups: List[_RowGroup] = []
        self.columns: List[str] = []
        self.n_rows = 0
        # accounting
        self.bytes_read = 0
        self.bytes_decompressed = 0
        self.groups_skipped = 0

    # ----------------------------------------------------------------- write

    def write(self, columns: Dict[str, np.ndarray]) -> None:
        self.columns = list(columns)
        n = len(next(iter(columns.values())))
        self.n_rows = n
        if not self.hdfs.exists(self.path):
            self.hdfs.create(self.path, self.node)
        for start in range(0, n, self.rows_per_group):
            end = min(start + self.rows_per_group, n)
            segments: Dict[str, _Segment] = {}
            for name in self.columns:
                values = columns[name][start:end]
                data = _encode_values(values)
                offset = self.hdfs.file_size(self.path)
                self.hdfs.append(self.path, data, self.node)
                segments[name] = _Segment(offset, len(data), values.min(),
                                          values.max())
            self.groups.append(_RowGroup(start, end - start, segments))

    def total_bytes(self) -> int:
        return self.hdfs.file_size(self.path)

    def bytes_per_column(self) -> Dict[str, int]:
        out = {c: 0 for c in self.columns}
        for g in self.groups:
            for name, seg in g.segments.items():
                out[name] += seg.length
        return out

    def reset_counters(self) -> None:
        self.bytes_read = 0
        self.bytes_decompressed = 0
        self.groups_skipped = 0

    # ----------------------------------------------------------------- read

    def _group_may_qualify(self, group: _RowGroup, predicates) -> bool:
        from repro.storage.minmax import TRIPLE_OPS, may_qualify
        for col, op, literal in predicates:
            seg = group.segments.get(col)
            if seg is None or op not in TRIPLE_OPS:  # cannot skip on it
                continue
            if op == "in":  # MinMax looks the block up in sorted values
                literal = sorted(literal)
            if not may_qualify(seg.min_value, seg.max_value, op, literal):
                return False
        return True

    def _read_segment(self, seg: _Segment) -> bytes:
        data = self.hdfs.read(self.path, seg.offset, seg.length, self.node)
        self.bytes_read += len(data)
        return data

    def scan_rows(self, columns: Sequence[str],
                  predicates: Sequence[Tuple[str, str, object]] = ()
                  ) -> Iterator[dict]:
        """Yield rows one at a time (value-at-a-time decode)."""
        for group in self.groups:
            decoded = self._scan_group(group, columns, predicates)
            if decoded is None:
                continue
            for i in range(group.n_rows):
                yield {name: decoded[name][i] for name in columns}

    def _scan_group(self, group, columns, predicates):
        raise NotImplementedError


class OrcLikeTable(_PaxTable):
    """ORC-like: MinMax skipping avoids decompression CPU but not IO."""

    format_name = "orc"

    def _scan_group(self, group, columns, predicates):
        decoded = {}
        qualifies = self._group_may_qualify(group, predicates)
        for name in columns:
            seg = group.segments[name]
            data = self._read_segment(seg)  # IO happens regardless
            if not qualifies:
                continue
            self.bytes_decompressed += seg.length
            decoded[name] = _decode_values(data)
        if not qualifies:
            self.groups_skipped += 1
            return None
        return decoded


class ParquetLikeTable(_PaxTable):
    """Parquet-like: MinMax sits after the header, so even a skipped group
    costs the block read; skipping can be disabled entirely (Impala)."""

    format_name = "parquet"

    def __init__(self, *args, use_minmax: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.use_minmax = use_minmax

    def _scan_group(self, group, columns, predicates):
        if self.use_minmax and predicates:
            # finding the stats requires reading the column chunks
            for name in columns:
                self._read_segment(group.segments[name])
            if not self._group_may_qualify(group, predicates):
                self.groups_skipped += 1
                return None
            decoded = {}
            for name in columns:
                seg = group.segments[name]
                data = self.hdfs.read(self.path, seg.offset, seg.length,
                                      self.node)  # already counted above
                self.bytes_decompressed += seg.length
                decoded[name] = _decode_values(data)
            return decoded
        decoded = {}
        for name in columns:
            seg = group.segments[name]
            data = self._read_segment(seg)
            self.bytes_decompressed += seg.length
            decoded[name] = _decode_values(data)
        return decoded
