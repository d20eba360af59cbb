"""Per-operator execution profiles, like the paper's appendix Q1 profile.

Every operator records the wall time it spent (``time``: its own, summed
over streams; ``cum_time``: its slowest stream's, children included),
tuples in/out, batches pulled and one sample per stream -- enough to print
the operator tree with the same shape of annotations as VectorH's
graphical profile. A distributed executor makes one node per plan node and
hands it to that plan node's operator on every stream, so the tree it
reports is the plan annotated with what ran, summed over streams;
operators run outside one make their own nodes.

Every second is recorded once, by the frame that spent it. There is one
frame stack: :meth:`Operator.execute` enters a :class:`Frame` around every
pull of its ``_run`` generator, and the :func:`kernel` context manager
enters one around a named sub-kernel *inside* an operator's hot path
(per-codec decode, MinMax checks, predicate evaluation, hash build/probe,
exchange serialization). A frame that exits adds its elapsed seconds to
the enclosing frame's nested total and records the rest -- elapsed minus
what nested frames took -- as its own: a child operator's pull, a sender
fragment a receiver pumps, a ``decode.pfor`` kernel inside a
``scan.read_block`` kernel each take their seconds out of the frame
around them, so seconds stay additive over the whole tree.

Attribution is *ambient*: a kernel lands on the node of the innermost
frame, so code far from the operator tree (a codec in
``repro.compression``, the PDT merge in ``repro.storage``) charges the
operator that is currently executing -- no plumbing of profile handles
through the storage stack. This module must stay free of repro imports so
every layer can use :func:`kernel` without cycles.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass(slots=True)
class KernelStat:
    """Cumulative accounting of one named kernel within one operator."""

    calls: int = 0
    #: own wall seconds: elapsed inside the kernel minus nested frames
    seconds: float = 0.0
    rows: int = 0
    bytes: int = 0


@dataclass
class ProfileNode:
    #: display text only; nothing pairs, groups or looks nodes up by it
    label: str
    #: slowest stream's seconds inside the operator, children included
    cum_time: float = 0.0
    #: seconds inside this operator's pulls and outside every frame nested
    #: in them (its kernels, the pulls of other operators), over all streams
    own_seconds: float = 0.0
    tuples_out: int = 0
    children: List["ProfileNode"] = field(default_factory=list)
    #: one sample per stream that ran the operator, in the order they closed
    stream_times: List[float] = field(default_factory=list)
    #: bytes moved through the network by this operator (DXchg send/recv)
    net_bytes: int = 0
    #: whole MPI messages this operator shipped (DXchg senders)
    net_messages: int = 0
    #: vectors this operator yielded
    batches: int = 0
    #: rows a join's key set removed from this scan after they had passed
    #: its own predicates (``tuples_out`` is what was left)
    key_filtered: int = 0
    #: how this join's builds answered probes, one entry per distinct
    #: answer over its streams (``position+unique``, ``sorted``, ...)
    lookups: Set[str] = field(default_factory=set)
    #: named sub-kernel accounting recorded by the :func:`kernel` cm
    kernels: Dict[str, KernelStat] = field(default_factory=dict)
    #: what the profiler and the query log group by: the plan class's
    #: label, plus ``.recv`` / ``.send`` for the halves of an exchange
    kind: str = ""
    #: the plan node every stream's operator filled this node for (None
    #: for the nodes of operators run outside an executor)
    plan: object = None

    @property
    def time(self) -> float:
        """What this operator spent, over all streams: its pulls' own
        seconds plus its kernels'."""
        return self.own_seconds + sum(
            k.seconds for k in self.kernels.values())

    @property
    def tuples_in(self) -> int:
        return sum(c.tuples_out for c in self.children)


def format_profile(node: ProfileNode, total_time: Optional[float] = None,
                   indent: int = 0) -> str:
    """Render the profile tree the way the paper's appendix does."""
    if total_time is None:
        total_time = node.cum_time or 1e-12
    pct = 100.0 * node.cum_time / total_time
    lines = []
    pad = "  " * indent
    streams = ""
    if len(node.stream_times) > 1:
        lo, hi = min(node.stream_times), max(node.stream_times)
        streams = f" on {len(node.stream_times)} streams [{lo:.4f}s..{hi:.4f}s]"
    net = ""
    if node.net_bytes or node.net_messages:
        net = (f"  net = {node.net_bytes:,} bytes"
               f" / {node.net_messages:,} msgs")
    lines.append(
        f"{pad}{node.label}{streams}\n"
        f"{pad}  time = {node.time:.4f}s  cum_time = {node.cum_time:.4f}s "
        f"({pct:.2f}%)\n"
        f"{pad}  in = {node.tuples_in:,}  out = {node.tuples_out:,}{net}"
    )
    for name, stat in sorted(node.kernels.items(),
                             key=lambda kv: (-kv[1].seconds, kv[0])):
        detail = f"{pad}  . kernel {name}: {stat.seconds:.4f}s"
        detail += f"  calls = {stat.calls:,}"
        if stat.rows:
            detail += f"  rows = {stat.rows:,}"
        if stat.bytes:
            detail += f"  bytes = {stat.bytes:,}"
        lines.append(detail)
    for child in node.children:
        lines.append(format_profile(child, total_time, indent + 1))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The frame stack: operator pulls and kernels, each recording its own seconds
# ---------------------------------------------------------------------------

#: global kill switch of *kernel* attribution (overhead measurement /
#: baselines); when off, :func:`kernel` returns a shared no-op and costs
#: one attribute read. Operator pulls are timed regardless.
_ENABLED = True

#: active frames, innermost last; the innermost frame's node is the
#: ambient target of :func:`kernel`, so it is always the operator whose
#: code is currently running
_FRAMES: List["Frame"] = []

#: recycled kernel frames -- :func:`kernel` runs per batch in every
#: operator's hot loop, so frames are pooled instead of allocated per entry
_POOL: List["Frame"] = []

_perf = _time.perf_counter


def set_kernel_profiling(enabled: bool) -> bool:
    """Toggle kernel attribution globally; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


class Frame:
    """One timed region; records into a ProfileNode on exit.

    With a ``name`` it is a kernel. Without, it is an operator's pulls:
    :meth:`Operator.execute` makes one per stream and enters it around
    every ``next()``, and ``seconds`` keeps what those took, nested
    frames included -- the stream's sample.

    Kept deliberately lean -- this runs once per batch in every
    operator's hot loop, and the smoke bench asserts a per-``kernel()``
    budget on Q1.
    """

    __slots__ = ("name", "node", "rows", "bytes", "seconds", "_t0", "_nested")

    def __init__(self, node: ProfileNode, name: Optional[str] = None,
                 rows: int = 0, nbytes: int = 0):
        self.name = name
        self.node = node
        self.rows = rows
        self.bytes = nbytes
        self.seconds = 0.0

    def account(self, rows: int = 0, nbytes: int = 0) -> None:
        """Add rows/bytes discovered while the kernel runs."""
        self.rows += rows
        self.bytes += nbytes

    def __enter__(self) -> "Frame":
        self._nested = 0.0
        _FRAMES.append(self)
        self._t0 = _perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = _perf() - self._t0
        frames = _FRAMES
        frames.pop()
        if frames:
            frames[-1]._nested += elapsed
        own = elapsed - self._nested
        if self.name is None:
            self.seconds += elapsed
            self.node.own_seconds += own
            return False
        kernels = self.node.kernels
        stat = kernels.get(self.name)
        if stat is None:
            stat = kernels[self.name] = KernelStat()
        stat.calls += 1
        if own > 0.0:
            stat.seconds += own
        stat.rows += self.rows
        stat.bytes += self.bytes
        _POOL.append(self)
        return False


class _NullKernel:
    """Shared no-op stand-in when profiling is off or nothing executes."""

    __slots__ = ()

    def account(self, rows: int = 0, nbytes: int = 0) -> None:
        pass

    def __enter__(self) -> "_NullKernel":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_KERNEL = _NullKernel()


def kernel(name: str, rows: int = 0, nbytes: int = 0,
           node: Optional[ProfileNode] = None):
    """Time a named sub-kernel of the currently-executing operator.

    ``with kernel("decode.pfor", rows=n, nbytes=len(data)): ...`` adds
    one call, the region's *own* wall seconds (nested frames take theirs
    out) and the given rows/bytes to the ambient operator's
    :attr:`ProfileNode.kernels`. Pass ``node`` to attribute explicitly
    instead of to the innermost frame's node. A no-op when profiling is
    disabled or no operator is executing.
    """
    if not _ENABLED:
        return _NULL_KERNEL
    if node is None:
        if not _FRAMES:
            return _NULL_KERNEL
        node = _FRAMES[-1].node
    if _POOL:
        frame = _POOL.pop()
        frame.name = name
        frame.node = node
        frame.rows = rows
        frame.bytes = nbytes
        return frame
    return Frame(node, name, rows, nbytes)
