"""Message-passing layer for DXchg operators (paper section 5).

The real system sends fixed-size (>=256KB) MPI messages with double
buffering so communication overlaps processing, and passes pointers instead
of messages for intra-node traffic. :class:`MpiFabric` accounts every
transfer through the metrics registry (per-link bytes, message counts and
floor padding -- the slack in message slots that ship less than a full
payload -- plus zero-copy local transfers); :class:`DXchgChannel` models
one sender's outgoing buffer towards one destination: batch bytes
accumulate in open buffers and whole ``message_size`` messages are flushed
as soon as a buffer fills, with a partial flush at end-of-stream -- so
exchange memory is *measured* from live buffer occupancy rather than
derived from the ``2*N*C`` / ``2*N*C^2`` formula alone.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.common.errors import NetworkTimeout
from repro.common.retry import RetryPolicy
from repro.obs import MetricsRegistry

#: per-link bandwidth used to convert bytes into simulated transfer time
#: for straggler-link faults (10Gb Ethernet, the paper's cluster)
LINK_BANDWIDTH = 1.25e9


def dxchg_buffer_memory(n_nodes: int, n_cores: int, message_size: int,
                        thread_to_node: bool) -> int:
    """Per-node DXchg sender buffer *capacity*, in bytes (the formula).

    The original thread-to-thread DXchg partitions with fanout
    ``n_nodes * n_cores``: with double buffering and ``n_cores`` senders
    per node that is ``2 * n_nodes * n_cores^2`` buffers per node. The
    thread-to-node variant reduces the fanout to ``n_nodes``, i.e.
    ``2 * n_nodes * n_cores`` buffers, at the price of a one-byte
    receiver-thread column per tuple (paper section 5).
    """
    if thread_to_node:
        return 2 * n_nodes * n_cores * message_size
    return 2 * n_nodes * n_cores * n_cores * message_size


class _LinkView(Mapping):
    """Dict-like view over a per-link counter family.

    Behaves like the ``defaultdict(int)`` it replaces: indexing an
    unknown ``(src, dst)`` link yields 0, iteration covers every link
    that has been charged since the last reset.
    """

    def __init__(self, family):
        self._family = family

    def __getitem__(self, key: Tuple[str, str]) -> int:
        src, dst = key
        return int(self._family.get(src=src, dst=dst))

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._family.snapshot())

    def __len__(self) -> int:
        return len(self._family.snapshot())

    def __repr__(self) -> str:
        return repr(dict(self))


class MpiFabric:
    """Counts traffic between named nodes through the metrics registry."""

    def __init__(self, message_size: int = 256 * 1024,
                 registry: Optional[MetricsRegistry] = None,
                 sim_clock=None):
        self.message_size = message_size
        self.registry = registry or MetricsRegistry()
        #: chaos hook: an object with ``on_send(fabric, src, dst, n_bytes)``
        #: that may raise :class:`NetworkTimeout` (drop), advance the
        #: simulated clock (delay / straggler link) or return the number
        #: of duplicate wire copies to account. None = perfect network.
        self.faults = None
        #: simulated clock charged by fault delays and retry backoff
        self.sim_clock = sim_clock
        #: bounded exponential backoff for dropped messages
        self.retry_policy = RetryPolicy()
        self._bytes = self.registry.counter(
            "net_bytes_total", "Payload bytes on the wire per link",
            labels=("src", "dst"),
        )
        self._messages = self.registry.counter(
            "net_messages_total", "Whole MPI messages per link",
            labels=("src", "dst"),
        )
        self._padding = self.registry.counter(
            "net_padding_bytes_total",
            "Floor padding: message-slot bytes not carrying payload",
            labels=("src", "dst"),
        )
        self._local = self.registry.counter(
            "net_local_bytes_total",
            "Intra-node pointer-pass bytes (never on the wire)",
        )
        self._drops = self.registry.counter(
            "net_dropped_messages_total",
            "Wire messages dropped by fault injection", labels=("src", "dst"),
        )
        self._retries = self.registry.counter(
            "net_retries_total", "Sends retried after a dropped message",
        )
        self._duplicates = self.registry.counter(
            "net_duplicate_messages_total",
            "Wire messages duplicated by fault injection",
        )
        self._fault_delay = self.registry.counter(
            "net_fault_delay_seconds_total",
            "Simulated seconds added by link delay/straggler faults",
        )
        #: live dict-like views kept for existing callers
        self.bytes_by_link = _LinkView(self._bytes)
        self.messages_by_link = _LinkView(self._messages)

    # -- fault bookkeeping (called by the chaos controller's injector) -------

    def note_drop(self, src: str, dst: str) -> None:
        self._drops.inc(src=src, dst=dst)

    def note_duplicate(self) -> None:
        self._duplicates.inc()

    def note_fault_delay(self, seconds: float) -> None:
        if seconds > 0:
            self._fault_delay.inc(seconds)
            if self.sim_clock is not None:
                self.sim_clock.advance(seconds)

    @property
    def dropped_messages(self) -> int:
        return int(self._drops.total())

    @property
    def send_retries(self) -> int:
        return int(self._retries.total())

    # -- wire accounting -----------------------------------------------------

    def _deliver(self, src: str, dst: str, n_bytes: int,
                 messages: int) -> None:
        """Account one successful transfer of ``messages`` wire slots."""
        self._bytes.inc(n_bytes, src=src, dst=dst)
        self._messages.inc(messages, src=src, dst=dst)
        padding = messages * self.message_size - n_bytes
        if padding > 0:
            self._padding.inc(padding, src=src, dst=dst)

    def _transmit(self, src: str, dst: str, n_bytes: int,
                  messages: int) -> None:
        """Push a transfer through the (possibly faulty) wire.

        With no fault injector installed this is a plain delivery. With
        one, a drop surfaces as :class:`NetworkTimeout`: the sender
        times out, backs off (simulated seconds, bounded exponential)
        and resends under the fabric's retry budget; duplication
        accounts extra wire copies of the same message.
        """
        if self.faults is None:
            self._deliver(src, dst, n_bytes, messages)
            return

        def attempt():
            copies = self.faults.on_send(self, src, dst, n_bytes)
            for _ in range(1 + max(0, int(copies or 0))):
                self._deliver(src, dst, n_bytes, messages)

        self.retry_policy.run(
            attempt, clock=self.sim_clock, retryable=(NetworkTimeout,),
            on_retry=lambda *_: self._retries.inc(),
        )

    def send(self, src: str, dst: str, n_bytes: int) -> None:
        """Record a one-shot transfer; intra-node sends are pointer passes.

        The payload is rounded up to whole messages, as a materializing
        sender that hands the full buffer to MPI at once would observe.
        Streaming senders go through :class:`DXchgChannel`, which calls
        :meth:`send_message` per flushed buffer instead.
        """
        if n_bytes <= 0:
            return
        if src == dst:
            self._local.inc(n_bytes)
            return
        messages = max(1, -(-n_bytes // self.message_size))
        self._transmit(src, dst, n_bytes, messages)

    def send_message(self, src: str, dst: str, n_bytes: int) -> None:
        """Record one wire message carrying ``n_bytes`` of payload.

        Used by :class:`DXchgChannel` flushes: each flush is exactly one
        MPI message regardless of fill level (a partial end-of-stream
        buffer still costs a full message slot on the wire).
        """
        if n_bytes <= 0:
            return
        if src == dst:
            self._local.inc(n_bytes)
            return
        self._transmit(src, dst, n_bytes, 1)

    @property
    def local_bytes(self) -> int:
        return int(self._local.total())

    @property
    def total_bytes(self) -> int:
        return int(self._bytes.total())

    @property
    def total_messages(self) -> int:
        return int(self._messages.total())

    @property
    def total_padding_bytes(self) -> int:
        return int(self._padding.total())

    def reset(self) -> None:
        self.registry.reset("net_")

    def snapshot(self) -> Dict[str, int]:
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "local_bytes": self.local_bytes,
            "padding_bytes": self.total_padding_bytes,
        }


class DXchgChannel:
    """One sender's outgoing DXchg buffers towards one destination node.

    ``n_lanes`` models the receiver-side fanout: the thread-to-node DXchg
    keeps a single open buffer per destination *node* (``n_lanes=1``),
    while the original thread-to-thread variant keeps one per receiver
    *thread* (``n_lanes=n_cores``). More lanes means each lane fills more
    slowly, so end-of-stream flushes ship more, emptier messages -- the
    throughput argument for thread-to-node buffering.

    Intra-node channels (``src == dst``) are pointer passes: bytes are
    accounted as local traffic and nothing is ever buffered.

    With double buffering the allocated capacity is ``2 * n_lanes *
    message_size`` per channel; ``peak_buffered`` tracks the bytes the
    open buffers actually held.
    """

    def __init__(self, fabric: MpiFabric, src: str, dst: str,
                 message_size: int = None, n_lanes: int = 1):
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.message_size = message_size or fabric.message_size
        self.n_lanes = max(1, n_lanes)
        self.lanes = [0] * self.n_lanes  # open-buffer occupancy per lane
        self._next_lane = 0
        self.buffered = 0  # total bytes currently in open buffers
        self.peak_buffered = 0
        self.bytes_pushed = 0
        self.tuples_pushed = 0
        self.messages_sent = 0
        self.local = src == dst
        self.closed = False

    @property
    def capacity_bytes(self) -> int:
        """Allocated sender-buffer capacity (double buffering)."""
        if self.local:
            return 0
        return 2 * self.n_lanes * self.message_size

    def push(self, n_bytes: int, n_tuples: int = 0) -> None:
        """Accumulate a batch's bytes; flush every buffer that fills."""
        if self.closed:
            raise RuntimeError("push on closed DXchgChannel")
        if n_bytes <= 0:
            return
        self.bytes_pushed += n_bytes
        self.tuples_pushed += n_tuples
        if self.local:
            self.fabric.send_message(self.src, self.dst, n_bytes)
            return
        # Spread the batch across lanes round-robin (one value-range per
        # receiver thread in the real system); each full lane buffer is
        # handed to MPI immediately so communication overlaps processing.
        per_lane, extra = divmod(n_bytes, self.n_lanes)
        for i in range(self.n_lanes):
            lane = (self._next_lane + i) % self.n_lanes
            share = per_lane + (1 if i < extra else 0)
            if share:
                self.lanes[lane] += share
                self.buffered += share
        self._next_lane = (self._next_lane + 1) % self.n_lanes
        if self.buffered > self.peak_buffered:
            self.peak_buffered = self.buffered
        for lane in range(self.n_lanes):
            while self.lanes[lane] >= self.message_size:
                self.fabric.send_message(self.src, self.dst,
                                         self.message_size)
                self.lanes[lane] -= self.message_size
                self.buffered -= self.message_size
                self.messages_sent += 1

    def close(self) -> None:
        """End of stream: flush every non-empty lane as a partial message."""
        if self.closed:
            return
        self.closed = True
        for lane in range(self.n_lanes):
            if self.lanes[lane] > 0:
                self.fabric.send_message(self.src, self.dst,
                                         self.lanes[lane])
                self.buffered -= self.lanes[lane]
                self.lanes[lane] = 0
                self.messages_sent += 1

    def abort(self) -> None:
        """Cancelled query: drop buffered bytes without touching the wire."""
        if self.closed:
            return
        self.closed = True
        for lane in range(self.n_lanes):
            self.buffered -= self.lanes[lane]
            self.lanes[lane] = 0
