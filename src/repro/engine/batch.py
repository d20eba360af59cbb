"""Vector batches: the unit of data flow between operators.

A column of a batch is a numpy array -- or, for strings that came out of a
PDICT block, a :class:`DictColumn`: integer codes plus the dictionary they
index, which is how such a column travels from the block to the result set.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

_COMPARISONS = frozenset((np.equal, np.not_equal, np.less, np.less_equal,
                          np.greater, np.greater_equal))

#: codes below a bound up to this many times their number (plus a vector)
#: are compacted by counting; beyond that, walking the bound costs more
#: than sorting the codes
_COUNTING_FACTOR = 8


def _sparse(codes: np.ndarray, bound: int) -> bool:
    return bound > _COUNTING_FACTOR * len(codes) + 1024


def dense_ranks(codes: np.ndarray, bound: int):
    """Non-negative integer ``codes`` below ``bound`` renumbered 0, 1, ...
    in their own order, and the distinct codes (ascending) those ranks
    stand for."""
    if _sparse(codes, bound):
        present, ranks = np.unique(codes, return_inverse=True)
        return ranks, present
    seen = np.bincount(codes, minlength=bound) > 0
    present = seen.nonzero()[0]
    if len(present) == bound:
        return codes, present
    return (seen.cumsum() - 1).take(codes), present


def sorted_distinct(strings: list) -> Tuple[np.ndarray, np.ndarray]:
    """A dictionary for ``strings`` -- its distinct values in order, as an
    object array -- and each one's int32 code in it. Python runs per
    string here: this is for entries, never for rows."""
    distinct = sorted(set(strings))
    code_of = dict(zip(distinct, range(len(distinct))))
    dictionary = np.empty(len(distinct), dtype=object)
    dictionary[:] = distinct
    return dictionary, np.fromiter(map(code_of.__getitem__, strings),
                                   np.int32, len(strings))


class EntryMemo:
    """What a function of the dictionary entries returned for the last
    dictionary it was asked about: vectors cut from one scan share their
    dictionary by reference, so they share the answer too."""

    __slots__ = ("dictionary", "result")

    def __init__(self):
        self.dictionary = self.result = None


class DictColumn(np.lib.mixins.NDArrayOperatorsMixin):
    """A string column as dictionary codes: ``dictionary[codes]``.

    ``dictionary`` is an object array of **sorted, distinct** strings, so
    code order is string order and equal codes are equal strings: rows are
    grouped, joined, ordered, routed and filtered on ``codes`` alone, and
    Python touches the entries, never the rows. The dictionary is shared
    by reference and never written: slices, masks and takes are new code
    arrays over the same object, and two columns over the same object
    compare code to code. Columns over different dictionaries meet in
    :func:`concat_columns`, which merges the entries.

    To code that knows nothing of it the column is the object array it
    stands for (``dtype``, ``len``, iteration, ``np.asarray``): anything
    numpy does that is not handled here works on that materialised copy.
    """

    __slots__ = ("codes", "dictionary")

    dtype = np.dtype(object)
    ndim = 1

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray):
        self.codes = codes
        self.dictionary = dictionary

    @classmethod
    def encode(cls, values) -> "DictColumn":
        """``values`` (a sequence of strings) as a coded column."""
        dictionary, codes = sorted_distinct(list(values))
        return cls(codes, dictionary)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def shape(self) -> Tuple[int]:
        return self.codes.shape

    def __getitem__(self, key):
        codes = self.codes[key]
        if isinstance(codes, np.ndarray):
            return DictColumn(codes, self.dictionary)
        return self.dictionary[codes]

    def take(self, index: np.ndarray) -> "DictColumn":
        return DictColumn(self.codes.take(index), self.dictionary)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # (``take`` gathers through int32 indices without widening them
        # first, which ``dictionary[codes]`` would)
        out = self.dictionary.take(self.codes)
        return out if dtype is None else out.astype(dtype, copy=False)

    def tolist(self) -> list:
        return self.dictionary.take(self.codes).tolist()

    def __iter__(self):
        return iter(self.tolist())

    def __repr__(self) -> str:
        return (f"DictColumn({len(self.codes)} rows, "
                f"{len(self.dictionary)} entries)")

    def ranks(self):
        """Every row's dense rank among the values present, and the codes
        of those values, ascending."""
        return dense_ranks(self.codes, len(self.dictionary))

    def present(self) -> np.ndarray:
        """The codes in use, ascending."""
        if _sparse(self.codes, len(self.dictionary)):
            return np.unique(self.codes)
        return np.bincount(self.codes,
                           minlength=len(self.dictionary)).nonzero()[0]

    def compacted(self) -> "DictColumn":
        """The same rows over a dictionary of just the entries in use."""
        ranks, present = self.ranks()
        return DictColumn(ranks.astype(np.int32, copy=False),
                          self.dictionary[present])

    def map_entries(self, fn: Callable[[np.ndarray], np.ndarray],
                    memo: Optional[EntryMemo] = None) -> np.ndarray:
        """``fn`` of this column's values, one per row: ``fn`` (an object
        array of strings in, an array as long out) runs on the dictionary
        entries and the rows gather its results through their codes. A
        dictionary larger than the column is cut to the entries in use
        first; otherwise a ``memo`` keeps the result for the next column
        over the same dictionary."""
        if len(self.dictionary) > len(self.codes):
            col = self.compacted()
            return fn(col.dictionary).take(col.codes)
        if memo is None:
            return fn(self.dictionary).take(self.codes)
        if memo.dictionary is not self.dictionary:
            memo.dictionary, memo.result = self.dictionary, fn(self.dictionary)
        return memo.result.take(self.codes)

    def with_values(self, values) -> Tuple["DictColumn", np.ndarray]:
        """This column over a dictionary that also holds ``values`` (a
        PDT's inserted and modified strings), and their codes in it: the
        column itself when its dictionary holds them all already."""
        codes = recode(np.asarray(values, dtype=object), self.dictionary)
        if not len(codes) or codes.min() >= 0:
            return self, codes.astype(np.int32)
        both = concat_columns([self, DictColumn.encode(values)])
        n = len(self.codes)
        return both[:n], both.codes[n:]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and ufunc in _COMPARISONS and not kwargs:
            left, right = inputs
            if np.ndim(right) == 0:  # this column against a literal
                return left.map_entries(lambda e: ufunc(e, right))
            if np.ndim(left) == 0:
                return right.map_entries(lambda e: ufunc(left, e))
            if (isinstance(left, DictColumn) and isinstance(right, DictColumn)
                    and left.dictionary is right.dictionary):
                return ufunc(left.codes, right.codes)
        # anything else needs the characters
        return getattr(ufunc, method)(
            *(np.asarray(x) if isinstance(x, DictColumn) else x
              for x in inputs), **kwargs)


def as_column(values):
    """``values`` as a column: a coded column as it is, anything else as
    an array."""
    return values if isinstance(values, DictColumn) else np.asarray(values)


def order_key(column) -> np.ndarray:
    """An array that sorts like ``column``: a coded column's codes."""
    return column.codes if isinstance(column, DictColumn) else column


def recode(column, dictionary: np.ndarray,
           memo: Optional[EntryMemo] = None) -> np.ndarray:
    """``column``'s strings as their codes in ``dictionary`` (sorted,
    distinct); -1 for a string it does not hold."""
    if isinstance(column, DictColumn):
        if column.dictionary is dictionary:
            return column.codes
        return column.map_entries(lambda e: recode(e, dictionary), memo)
    if len(dictionary) == 0:
        return np.full(len(column), -1)
    at = np.minimum(np.searchsorted(dictionary, column), len(dictionary) - 1)
    return np.where(dictionary[at] == column, at, -1)


def hash_inputs(values: np.ndarray) -> np.ndarray:
    """A key column as the int64 a partition or DXchg hash mixes in: numbers
    as they are, strings by the CRC-32 of their UTF-8 bytes. Python's
    ``hash()`` is salted per process, so placement and routing would move
    with ``PYTHONHASHSEED``; each distinct string -- of a coded column,
    each entry -- is hashed once."""
    if isinstance(values, DictColumn):
        return values.map_entries(hash_inputs)
    if values.dtype.kind not in "OUS":
        return values.astype(np.int64)
    items = values.tolist()
    crc = {v: zlib.crc32(str(v).encode()) for v in dict.fromkeys(items)}
    return np.fromiter(map(crc.__getitem__, items), np.int64, len(items))


def concat_columns(parts: Sequence) -> np.ndarray:
    """One column out of ``parts``, in order. Coded parts over one
    dictionary object stay over it; over different dictionaries their
    entries are merged (sorted, distinct again) and each part's codes
    re-mapped with one take. A plain part among them makes the result a
    plain object array."""
    coded = [isinstance(p, DictColumn) for p in parts]
    if not any(coded):
        return np.concatenate(parts)
    if not all(coded):
        return np.concatenate([np.asarray(p) for p in parts])
    dictionary = parts[0].dictionary
    if all(p.dictionary is dictionary for p in parts):
        return DictColumn(np.concatenate([p.codes for p in parts]),
                          dictionary)
    # merging walks every entry: leave out the ones no row uses when they
    # outnumber the rows
    parts = [p.compacted() if len(p.dictionary) > len(p.codes) else p
             for p in parts]
    merged, new_code = sorted_distinct(
        [s for p in parts for s in p.dictionary.tolist()])
    codes, start = [], 0
    for p in parts:
        codes.append(new_code[start: start + len(p.dictionary)].take(p.codes))
        start += len(p.dictionary)
    return DictColumn(np.concatenate(codes), merged)


def materialized(columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """``columns`` with every coded column as the object array it stands
    for -- what leaves the engine."""
    return {k: np.asarray(v) if isinstance(v, DictColumn) else v
            for k, v in columns.items()}


@dataclass
class Batch:
    """A horizontal slice of tuples, column-wise: a vector. Operators cut
    and re-form vectors of ``vector_size`` tuples; a scan hands on one
    piece per vector, which may hold more."""

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
    are estimated from a sample prefix plus a 4-byte length per value. A
    coded column is its codes plus, once, the dictionary entries its rows
    use (so the size is the rows' alone, whatever else the dictionary
    they share holds).
    """
    total = 0
    for values in batch.columns.values():
        if isinstance(values, DictColumn):
            total += values.codes.nbytes
            present = values.present()
            if len(present):
                sample = values.dictionary[present[:64]].tolist()
                avg = sum(map(len, sample)) / len(sample)
                total += int((avg + 4) * len(present))
        elif not isinstance(values, np.ndarray):  # a StringImage
            total += int(values.sizes.sum())  # its rows' length + bytes
        elif values.dtype != object:
            total += values.nbytes
        elif len(values):
            sample = values[:64].tolist()
            avg = sum(len(str(v)) for v in sample) / len(sample)
            total += int((avg + 4) * len(values))
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
    ``DXchgReceiver`` sends one (before it pumps its senders);
    ``StreamingScan``, ``Select`` and ``HashJoin`` never do, and the end
    of the stream is handled as one last ``None``. A stream without a
    single row still yields one empty batch carrying the column names and
    dtypes, and closing this generator closes ``batches``.
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
        {k: concat_columns([b.columns[k] for b in full]) for k in names},
        sum(b.n for b in full),
    )
