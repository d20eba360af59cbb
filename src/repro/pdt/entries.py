"""Delta entries: the leaves of a Positional Delta Tree.

Every entry is anchored at a stable position:

* an **insert** appears immediately before the stable tuple ``anchor_sid``
  (``anchor_sid == n_stable`` appends at the end); it carries a cluster-wide
  unique tuple id (``uid``) so later deltas can target it before it is ever
  propagated to disk;
* a **delete** / **modify** targets an :class:`Identity` -- either a stable
  tuple (by SID) or a not-yet-propagated insert (by uid).

Entries are totally ordered by ``(anchor_sid, seq)`` where ``seq`` is a
monotone commit sequence, which is exactly the positional merge order.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# Identity of a tuple: ("s", sid) for stable tuples, ("i", uid) for
# in-memory inserts. Encoded into int64 for vectorized plumbing:
# stable sid >= 0, inserts as -(uid + 1).
Identity = Tuple[str, int]

_uid_counter = itertools.count(1)


def next_uid() -> int:
    """Allocate a cluster-wide unique id for a freshly inserted tuple."""
    return next(_uid_counter)


def stable(sid: int) -> Identity:
    return ("s", sid)


def inserted(uid: int) -> Identity:
    return ("i", uid)


def encode_identity(identity: Identity) -> int:
    tag, value = identity
    if tag == "s":
        return value
    return -(value + 1)


def decode_identity(code: int) -> Identity:
    if code >= 0:
        return ("s", int(code))
    return ("i", int(-code - 1))


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
    anchor_sid: int
    seq: int
    uid: int = 0  # INSERT only: identity of the new tuple
    target: Optional[Identity] = None  # DELETE/MODIFY only
    values: Dict[str, object] = field(default_factory=dict)

    def sort_key(self) -> Tuple[int, int]:
        return (self.anchor_sid, self.seq)

    def identity_written(self) -> Optional[Identity]:
        """The identity this entry writes (for conflict detection)."""
        if self.kind is EntryKind.INSERT:
            return None  # fresh tuples cannot conflict
        return self.target
