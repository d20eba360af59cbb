"""Delta entries: the leaves of a Positional Delta Tree.

A tuple has one identity, an int64 *code*: a stable tuple's is its SID
(``>= 0``), a not-yet-propagated insert's is ``-(uid + 1)`` for a
cluster-wide unique ``uid`` the PDT gives it, so later deltas can target
it before it is ever propagated to disk. Scans hand the codes out
row-aligned, DML passes them back, and every entry names the code it
writes as its ``target``:

* an **insert** writes a new tuple, its own fresh code, which appears
  immediately before the stable tuple ``anchor_sid`` (``anchor_sid ==
  n_stable`` appends at the end);
* a **delete** / **modify** writes the tuple it targets.

``seq`` is a monotone commit sequence; inserts are merged in ``(anchor_sid,
seq)`` order. Only :mod:`repro.pdt` reads an entry's fields: everyone else
asks the layer, the stack or a :class:`~repro.pdt.layer.MergePlan`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict

_uid_counter = itertools.count(1)


def next_insert_code() -> int:
    """The code of a freshly inserted tuple, unique in the cluster."""
    return -(next(_uid_counter) + 1)


class EntryKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    MODIFY = "modify"


@dataclass(frozen=True)
class DeltaEntry:
    """One positional update. Also the WAL log-record payload. Shared by
    every layer and record holding it, so never changed (``values`` too):
    a commit re-sequences a copy (``dataclasses.replace``)."""

    kind: EntryKind
    seq: int
    target: int  # the code this entry writes
    anchor_sid: int = 0  # INSERT only: the stable row it precedes
    values: Dict[str, object] = field(default_factory=dict)
