"""Vector batches: the unit of data flow between operators."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np


@dataclass
class Batch:
    """A horizontal slice of up to ``vector_size`` tuples, column-wise."""

    columns: Dict[str, np.ndarray]
    n: int

    @classmethod
    def from_columns(cls, columns: Dict[str, np.ndarray]) -> "Batch":
        n = len(next(iter(columns.values()))) if columns else 0
        return cls(dict(columns), n)

    def select(self, mask: np.ndarray) -> "Batch":
        return Batch({k: v[mask] for k, v in self.columns.items()},
                     int(mask.sum()))

    def take(self, index: np.ndarray) -> "Batch":
        return Batch({k: v[index] for k, v in self.columns.items()},
                     len(index))

    def project(self, names: Sequence[str]) -> "Batch":
        return Batch({k: self.columns[k] for k in names}, self.n)

    @classmethod
    def empty_like(cls, template: "Batch") -> "Batch":
        """A zero-row batch with the template's column names and dtypes.

        Exchanges and filters over all-empty partitions must still emit
        the schema, or downstream operators lose column names/dtypes.
        """
        return cls({k: v[:0] for k, v in template.columns.items()}, 0)

    @property
    def column_names(self) -> List[str]:
        return list(self.columns)


def batch_bytes(batch: "Batch") -> int:
    """Serialized size estimate (PAX-layout MPI buffers).

    Fixed-width columns count their raw nbytes; object (string) columns
    are estimated from a sample prefix plus a 4-byte length per value.
    """
    total = 0
    for values in batch.columns.values():
        if values.dtype == object:
            if len(values) == 0:
                continue
            sample = values[: min(64, len(values))]
            avg = sum(len(str(v)) for v in sample) / len(sample)
            total += int((avg + 4) * len(values))
        else:
            total += values.nbytes
    return total


def batches_from_columns(columns: Dict[str, np.ndarray],
                         vector_size: int) -> Iterator[Batch]:
    """Slice a materialized column set into engine-sized vectors.

    An empty (0-row) column set still yields one empty batch so column
    names and dtypes propagate through the operator tree -- empty
    partitions must not erase the schema.
    """
    if not columns:
        return
    n = len(next(iter(columns.values())))
    if n == 0:
        yield Batch(dict(columns), 0)
        return
    for start in range(0, n, vector_size):
        end = min(start + vector_size, n)
        yield Batch({k: v[start:end] for k, v in columns.items()},
                    end - start)


def full_vectors(batches: Iterable[Optional[Batch]],
                 vector_size: int) -> Iterator[Batch]:
    """Re-form full vectors from a stream that filters, joins or hash
    splits have cut into slivers, keeping row order.

    A batch that already fills a vector passes through untouched; shorter
    ones are held and concatenated once they add up to a vector, so every
    batch handed on but the last carries at least ``vector_size`` rows.
    A ``None`` in the stream means "nothing more has arrived yet": the
    held rows are handed on short instead of waiting. Only
    ``DXchgReceiver`` sends one (before it pumps its senders); ``Select``
    and ``HashJoin`` never do, and the end of the stream is handled as one
    last ``None``. A stream without a single row
    still yields one empty batch carrying the column names and dtypes, and
    closing this generator closes ``batches``.
    """
    template: Optional[Batch] = None
    held: List[Batch] = []
    held_rows = 0
    yielded = False
    try:
        for batch in chain(batches, (None,)):  # the end hands on the rest
            if batch is not None:
                if template is None and batch.columns:
                    template = batch
                if batch.n == 0:
                    continue
                held.append(batch)
                held_rows += batch.n
                if held_rows < vector_size:
                    continue
            if held:
                yielded = True
                yield held[0] if len(held) == 1 else concat_batches(held)
                held, held_rows = [], 0
        if not yielded and template is not None:
            yield Batch.empty_like(template)
    finally:
        close = getattr(batches, "close", None)
        if close is not None:
            close()


def concat_batches(batches: Iterable[Batch]) -> Batch:
    """Materialize a batch stream into one batch (sorts, builds, results)."""
    template: Batch | None = None
    full = []
    for b in batches:
        if template is None and b.columns:
            template = b
        if b.n:
            full.append(b)
    if not full:
        if template is not None:
            return Batch.empty_like(template)
        return Batch({}, 0)
    names = full[0].column_names
    return Batch(
        {k: np.concatenate([b.columns[k] for b in full]) for k in names},
        sum(b.n for b in full),
    )
