"""Delta batches: the leaves of a Positional Delta Tree.

A tuple has one identity, an int64 *code*: a stable tuple's is its SID
(``>= 0``), a not-yet-propagated insert's is ``-(uid + 1)`` for a
cluster-wide unique ``uid`` the PDT gives it, so later deltas can target
it before it is ever propagated to disk. Scans hand the codes out
row-aligned, and DML passes them back.

One DML call writes one :class:`DeltaBatch` per partition, column-wise:
a kind, one ``seq`` (a monotone commit sequence) and its rows in commit
order. An **insert** writes new tuples, its own fresh ``targets``, each
immediately before the stable tuple its ``anchors`` entry names
(``n_stable`` appends at the end); a **delete** / **modify** writes the
tuples it targets. Inserts merge in ``(anchor, seq, row)`` order, and a
modify is last-writer-wins per column. Only :mod:`repro.pdt` reads a
batch's fields: everyone else asks the layer, the stack or a
:class:`~repro.pdt.layer.MergePlan`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

_uids = itertools.count(1)


def fresh_codes(n: int) -> np.ndarray:
    """The codes of ``n`` freshly inserted tuples, unique in the
    cluster."""
    return -1 - np.fromiter(_uids, np.int64, n)


class EntryKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    MODIFY = "modify"


@dataclass(frozen=True, eq=False)
class DeltaBatch:
    """The rows one DML call writes into one partition. Shared by every
    layer and record holding it, so never changed (its arrays neither):
    a commit re-sequences a copy (``dataclasses.replace``). A prepare
    record pickles it as plain lists (:meth:`__reduce__`), fewer bytes
    than numpy's array pickling for a batch of a few rows."""

    kind: EntryKind
    seq: int
    #: int64, the code each row writes
    targets: np.ndarray
    #: int64, INSERT only: the stable row each new tuple precedes
    anchors: Optional[np.ndarray] = None
    #: one array per written column, in storage representation
    columns: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.targets)

    def take(self, rows: np.ndarray) -> "DeltaBatch":
        """The batch of ``rows`` (a mask or positions) only."""
        return DeltaBatch(
            self.kind, self.seq, self.targets[rows],
            None if self.anchors is None else self.anchors[rows],
            {name: values[rows] for name, values in self.columns.items()})

    def __reduce__(self):
        return _unpack, (
            self.kind.value, self.seq, self.targets.tolist(),
            None if self.anchors is None else self.anchors.tolist(),
            {name: (values.dtype.str, values.tolist())
             for name, values in self.columns.items()})


def _unpack(kind, seq, targets, anchors, columns) -> DeltaBatch:
    """A :class:`DeltaBatch` from what it pickles as."""
    return DeltaBatch(
        EntryKind(kind), seq, np.array(targets, dtype=np.int64),
        None if anchors is None else np.array(anchors, dtype=np.int64),
        {name: np.array(values, dtype=dtype)
         for name, (dtype, values) in columns.items()})
