"""Per-operator execution profiles, like the paper's appendix Q1 profile.

Every operator records wall time spent inside it (``cum_time`` includes its
children, ``time`` is self-only), tuples in/out, batches pulled and one
sample per stream -- enough to print the operator tree with the same shape
of annotations as VectorH's graphical profile. A distributed executor makes
one node per plan node and hands it to that plan node's operator on every
stream, so the tree it reports is the plan annotated with what ran, summed
over streams; operators run outside one make their own nodes.

On top of the tree, this module carries the *kernel* layer of the
continuous profiler (``repro.obs.profiler``): a cheap :func:`kernel`
context manager that attributes wall time, rows and bytes to named
sub-kernels *inside* an operator's hot path (per-codec decode, MinMax
checks, predicate evaluation, hash build/probe, exchange serialization).
Kernels self-nest: a ``decode.pfor`` kernel entered inside a
``scan.read_block`` kernel subtracts its elapsed time from the enclosing
frame, so per-kernel seconds stay additive within one operator.

Attribution is *ambient*: :meth:`Operator.execute` pushes its
:class:`ProfileNode` onto a sink stack around every pull of its ``_run``
generator, so code far from the operator tree (a codec in
``repro.compression``, the PDT merge in ``repro.storage``) lands its
kernels on the operator that is currently executing -- no plumbing of
profile handles through the storage stack. This module must stay free of
repro imports so every layer can use :func:`kernel` without cycles.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class KernelStat:
    """Cumulative accounting of one named kernel within one operator."""

    __slots__ = ("calls", "seconds", "rows", "bytes")

    def __init__(self, calls: int = 0, seconds: float = 0.0,
                 rows: int = 0, bytes: int = 0):
        self.calls = calls
        #: self wall seconds: elapsed inside the kernel minus nested kernels
        self.seconds = seconds
        self.rows = rows
        self.bytes = bytes

    def __repr__(self) -> str:
        return (f"KernelStat(calls={self.calls}, seconds={self.seconds!r}, "
                f"rows={self.rows}, bytes={self.bytes})")

    def merge(self, other: "KernelStat") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.rows += other.rows
        self.bytes += other.bytes


@dataclass
class ProfileNode:
    #: display text only; nothing pairs, groups or looks nodes up by it
    label: str
    #: slowest stream's seconds inside the operator, children included
    cum_time: float = 0.0
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
        """Self time: cumulative minus the children's cumulative."""
        return max(0.0, self.cum_time - sum(c.cum_time for c in self.children))

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
# The kernel context manager: ambient sinks + self-nesting frames
# ---------------------------------------------------------------------------

#: global kill switch (overhead measurement / baselines); when off,
#: :func:`kernel` returns a shared no-op and costs one attribute read
_ENABLED = True

#: ambient attribution targets: :meth:`Operator.execute` pushes its
#: ProfileNode around every ``_run`` pull, so the top of the stack is
#: always the operator whose code is currently running
_SINKS: List[ProfileNode] = []

#: active kernel frames, innermost last, for self-time subtraction
_FRAMES: List["_Kernel"] = []

#: recycled frames -- :func:`kernel` runs per batch in every operator's
#: hot loop, so frames are pooled instead of allocated per entry
_POOL: List["_Kernel"] = []

_perf = _time.perf_counter


def set_kernel_profiling(enabled: bool) -> bool:
    """Toggle kernel attribution globally; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def kernel_profiling_enabled() -> bool:
    return _ENABLED


def push_sink(node: ProfileNode) -> None:
    _SINKS.append(node)


def pop_sink() -> None:
    _SINKS.pop()


class _Kernel:
    """One timed kernel region; records into a ProfileNode on exit.

    Kept deliberately lean -- this runs once per batch in every
    operator's hot loop, and the smoke bench asserts the whole profiler
    stays under a 5% overhead budget on Q1.
    """

    __slots__ = ("name", "node", "rows", "bytes", "_t0", "_child")

    def __init__(self, name: str = "", node: Optional[ProfileNode] = None,
                 rows: int = 0, nbytes: int = 0):
        self.name = name
        self.node = node
        self.rows = rows
        self.bytes = nbytes

    def account(self, rows: int = 0, nbytes: int = 0) -> None:
        """Add rows/bytes discovered while the kernel runs."""
        self.rows += rows
        self.bytes += nbytes

    def __enter__(self) -> "_Kernel":
        self._child = 0.0
        _FRAMES.append(self)
        self._t0 = _perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = _perf() - self._t0
        frames = _FRAMES
        frames.pop()
        if frames:
            frames[-1]._child += elapsed
        kernels = self.node.kernels
        stat = kernels.get(self.name)
        if stat is None:
            stat = kernels[self.name] = KernelStat()
        stat.calls += 1
        self_seconds = elapsed - self._child
        if self_seconds > 0.0:
            stat.seconds += self_seconds
        stat.rows += self.rows
        stat.bytes += self.bytes
        _POOL.append(self)
        return False


class _NullKernel:
    """Shared no-op stand-in when profiling is off or no sink is active."""

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
    one call, the region's *self* wall seconds (nested kernels subtract
    themselves) and the given rows/bytes to the ambient operator's
    :attr:`ProfileNode.kernels`. Pass ``node`` to attribute explicitly
    instead of to the ambient sink. A no-op when profiling is disabled
    or no operator is executing.
    """
    if not _ENABLED:
        return _NULL_KERNEL
    if node is None:
        if not _SINKS:
            return _NULL_KERNEL
        node = _SINKS[-1]
    if _POOL:
        frame = _POOL.pop()
        frame.name = name
        frame.node = node
        frame.rows = rows
        frame.bytes = nbytes
        return frame
    return _Kernel(name, node, rows, nbytes)
