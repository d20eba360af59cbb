"""Table schemas: columns, keys, clustering and partitioning."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.common.types import ColumnType
from repro.engine.batch import hash_inputs


@dataclass(frozen=True)
class Column:
    name: str
    ctype: ColumnType


@dataclass(frozen=True)
class ForeignKey:
    """A declared FK; drives co-ordered clustering and co-located joins."""

    columns: tuple
    ref_table: str
    ref_columns: tuple


@dataclass
class TableSchema:
    """Logical + physical design of one table.

    * ``clustered_on``: the table is stored sorted on these columns
      ("clustered index"; when it is a foreign key the table is co-ordered
      with the referenced table, enabling merge joins).
    * ``partition_key`` + ``n_partitions``: horizontal hash partitioning;
      tables without a partition key are replicated on all workers.
    """

    name: str
    columns: List[Column]
    primary_key: Sequence[str] = ()
    foreign_keys: List[ForeignKey] = field(default_factory=list)
    clustered_on: Sequence[str] = ()
    partition_key: Sequence[str] = ()
    n_partitions: int = 1

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column in {self.name}")
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        col = self._by_name.get(name)
        if col is None:
            raise StorageError(f"no column {name!r} in table {self.name}")
        return col

    def ctype(self, name: str) -> ColumnType:
        return self.column(name).ctype

    @property
    def is_partitioned(self) -> bool:
        return bool(self.partition_key) and self.n_partitions > 1

    @property
    def is_clustered(self) -> bool:
        return bool(self.clustered_on)

    def partition_ids(self, key_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized partition assignment for rows of key columns in
        storage representation (``ColumnType.to_storage``), so a DECIMAL
        key hashes its fixed-point integer wherever it is asked."""
        if not self.is_partitioned:
            return np.zeros(len(key_arrays[0]), dtype=np.int64)
        h = np.zeros(len(key_arrays[0]), dtype=np.int64)
        for arr in key_arrays:
            h = (h * 1000003 + hash_inputs(arr)) & 0x7FFFFFFF
        return h % self.n_partitions
