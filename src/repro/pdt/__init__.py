"""Positional Delta Trees: differential updates over read-optimized storage.

PDTs (Héman et al., SIGMOD 2010; paper sections 2 and 6) store
inserts/deletes/modifies positionally -- keyed by the *stable ID* (SID), the
tuple's position in the immutable on-disk image -- so that merging the
differences into every scan needs no key comparisons. A tuple has one
identity, an int64 code (a SID, or a negative code for a not yet
propagated insert); scans hand codes out and DML passes them back. A
DML call writes one batch of rows per partition, column-wise, and only
this package reads a batch's fields. Layers stack:
a slow-moving **Read-PDT**, a small **Write-PDT** (copy-on-write at commit,
giving snapshot isolation) and a per-transaction **Trans-PDT**.

Implementation note (substitution): the original PDT is a counting B+-tree
whose interior nodes store #inserts - #deletes below them, giving O(log n)
SID<->RID translation. Here the same entry semantics are kept in sorted
numpy arrays with prefix sums and ``searchsorted`` -- identical externally
visible behaviour (positional merge, stacking, serialization, write-write
conflict detection), appropriate for an in-process simulation.
"""

from repro.pdt.layer import MergeResult, PdtLayer, apply_entries
from repro.pdt.stack import PdtStack, TransPdt

__all__ = [
    "PdtLayer",
    "MergeResult",
    "apply_entries",
    "PdtStack",
    "TransPdt",
]
