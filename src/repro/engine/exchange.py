"""Streaming DXchg operators (paper section 5).

The materializing executor ran every plan fragment to completion and
re-sliced the result at each exchange boundary -- stop-and-go execution.
This module makes exchanges *operators*: a :class:`DXchgSender` splits
each incoming vector by destination and pushes it into per-link
:class:`~repro.net.mpi.DXchgChannel` buffers (flushing whole MPI messages
as buffers fill, so communication overlaps processing), while a
:class:`DXchgReceiver` on the consuming side yields batches as they
arrive. One :class:`Exchange` object holds the shared state -- receive
queues, sender channels, progress -- and a :class:`StreamScheduler`
advances the sender fragments round-robin, one vector at a time, charging
simulated time for the slowest stream of each round (the behaviour of a
cluster whose streams run concurrently).

``mode="materialize"`` keeps the old stop-and-go schedule (each sender
fragment drained completely before consumers start) over the *same*
channel machinery, which is what the streaming-vs-materializing ablation
benchmark compares: identical per-link bytes and message counts, very
different peak buffered memory and overlap.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.batch import Batch, batch_bytes, full_vectors
from repro.engine.operators import Operator
from repro.engine.profile import kernel
from repro.net.mpi import DXchgChannel, MpiFabric

STREAMING = "streaming"
MATERIALIZE = "materialize"

DONE = object()


class MemoryMeter:
    """Tracks current and peak bytes held per node (operator state,
    channel buffers, receive queues).

    A meter may chain to a ``parent``: every hold/release is forwarded,
    so a per-query meter rolls up into the workload manager's
    cluster-wide meter, whose ``current`` is the live usage admission
    control checks against its per-node budget.
    """

    def __init__(self, parent: Optional["MemoryMeter"] = None):
        self.current: Dict[str, int] = {}
        self.peak: Dict[str, int] = {}
        self.parent = parent

    def hold(self, node: str, n_bytes: int) -> None:
        cur = self.current.get(node, 0) + n_bytes
        self.current[node] = cur
        if cur > self.peak.get(node, 0):
            self.peak[node] = cur
        if self.parent is not None:
            self.parent.hold(node, n_bytes)

    def release(self, node: str, n_bytes: int) -> None:
        self.current[node] = self.current.get(node, 0) - n_bytes
        if self.parent is not None:
            self.parent.release(node, n_bytes)

    def peak_by_node(self) -> Dict[str, int]:
        return dict(self.peak)

    def detach(self) -> None:
        """Give back any residual bytes to the parent and unchain.

        Pipeline breakers (hash builds, sort buffers) charge state that
        is only dropped with the operator tree, after the meter stopped
        mattering for a single query -- but a chained parent outlives the
        query and must not keep phantom usage.
        """
        if self.parent is not None:
            for node, cur in self.current.items():
                if cur:
                    self.parent.release(node, cur)
            self.parent = None


#: simulated seconds :class:`BatchCostModel` charges per pull and per tuple
SIM_PER_CALL = 2e-6
SIM_PER_ROW = 1e-7


class BatchCostModel:
    """Deterministic per-pull cost for :class:`StreamScheduler`.

    Replaces measured wall time with ``per_pull + n_tuples * per_tuple``
    so that two identical runs charge identical simulated time: it is the
    scheduler clock behind ``workload_deterministic``, tenant fairness and
    chaos replay, not a performance measure. The constants approximate a
    ~10M tuple/s/core engine with a small fixed dispatch overhead per
    vector pull.
    """

    def __call__(self, item) -> float:
        n = getattr(item, "n", 0) if item is not DONE else 0
        return SIM_PER_CALL + n * SIM_PER_ROW


class StreamScheduler:
    """Round-robin advance of concurrent stream iterators with nested-time
    bookkeeping.

    ``advance`` measures the *self* time of pulling one item: wall time
    minus any time spent inside nested ``advance`` calls (a sender pull
    that pumps a deeper exchange must not double-charge the deeper
    senders' work). ``charge_round`` adds the slowest self-time of a round
    to the simulated clock -- concurrent streams overlap, so only the
    slowest one is on the critical path.

    With a ``cost_model`` the charged time is computed from the pulled
    item instead of measured (deterministic runs). As the cluster-wide
    scheduler of a :class:`~repro.workload.WorkloadManager`, the turn
    protocol extends the same overlap rule across queries: charges made
    between ``begin_turn``/``end_turn`` accumulate into one per-query
    turn cost, and ``charge_concurrent`` applies only the slowest turn of
    each global round -- queries on disjoint core slots run concurrently,
    so only the slowest one is on the round's critical path.
    """

    def __init__(self, clock=None, cost_model=None):
        self.sim_seconds = 0.0
        #: optional cluster-wide :class:`repro.obs.SimClock`, advanced in
        #: lockstep so tracer spans can read simulated time live
        self.clock = clock
        #: optional ``item -> seconds`` replacing wall measurement
        self.cost_model = cost_model
        self._nested = [0.0]
        self._turn: Optional[float] = None

    def advance(self, iterator) -> Tuple[object, float]:
        if self.cost_model is not None:
            try:
                item = next(iterator)
            except StopIteration:
                item = DONE
            return item, self.cost_model(item)
        t0 = _time.perf_counter()
        self._nested.append(0.0)
        try:
            try:
                item = next(iterator)
            except StopIteration:
                item = DONE
        finally:
            inner = self._nested.pop()
            wall = _time.perf_counter() - t0
            self._nested[-1] += wall
        return item, max(0.0, wall - inner)

    def charge_round(self, self_times: Iterable[float]) -> None:
        times = list(self_times)
        if times:
            dt = max(times)
            if self._turn is not None:
                self._turn += dt
            else:
                self._apply(dt)

    # ---- cross-query turns (workload manager) -------------------------

    def begin_turn(self) -> None:
        """Start buffering charges into one query's turn cost."""
        self._turn = 0.0

    def end_turn(self) -> float:
        """Close the turn; returns its total cost without charging it."""
        cost, self._turn = self._turn or 0.0, None
        return cost

    def charge_concurrent(self, turn_costs: Iterable[float]) -> None:
        """Charge one global round: the slowest query's turn only."""
        costs = list(turn_costs)
        if costs:
            self._apply(max(costs))

    def _apply(self, dt: float) -> None:
        self.sim_seconds += dt
        if self.clock is not None:
            self.clock.advance(dt)


#: route(src_stream, batch) -> [(dest_stream, piece), ...]
RouteFn = Callable[[str, Batch], List[Tuple[str, Batch]]]


class Exchange:
    """Shared state of one DXchg: channels, receive queues, progress."""

    def __init__(self, label: str, fabric: MpiFabric, route: RouteFn,
                 node_of: Callable[[str], str],
                 scheduler: StreamScheduler,
                 meter: Optional[MemoryMeter] = None,
                 mode: str = STREAMING,
                 message_size: Optional[int] = None,
                 n_lanes: int = 1):
        self.label = label
        self.fabric = fabric
        self.route = route
        self.node_of = node_of
        self.scheduler = scheduler
        self.meter = meter or MemoryMeter()
        self.mode = mode
        self.message_size = message_size or fabric.message_size
        self.n_lanes = n_lanes
        self.senders: List[DXchgSender] = []
        self.queues: Dict[str, deque] = {}
        self.channels: Dict[Tuple[str, str], DXchgChannel] = {}
        self.template: Optional[Batch] = None
        self.finished = False
        self._started = False
        self._open_senders = 0
        #: called with ``self`` after every pump round -- the QueryRun
        #: watches live ``tuples_in`` and may raise a ReplanSignal
        #: through the operator generator stack
        self.watcher: Optional[Callable[["Exchange"], None]] = None
        # accounting
        self.bytes_sent = 0
        self.local_bytes = 0
        self.tuples_sent = 0
        #: rows that *entered* the exchange (tuples_sent counts each
        #: broadcast destination; this counts the source rows once)
        self.tuples_in = 0
        self._queued_bytes = 0
        #: high-water mark of the sender-side channel buffers (the
        #: "DXchg buffer memory" the paper sizes with 2*N*C formulas)
        self.peak_buffered = 0
        #: high-water mark of the receive queues (data delivered but not
        #: yet consumed -- what stop-and-go materialization maximizes)
        self.peak_queued = 0

    # ------------------------------------------------------------ wiring

    def add_sender(self, stream: str, child: Operator) -> "DXchgSender":
        op = DXchgSender(child, self, stream)
        self.senders.append(op)
        self._open_senders += 1
        return op

    def attach_receiver(self, stream: str) -> "DXchgReceiver":
        self.queues[stream] = deque()
        return DXchgReceiver(self, stream)

    def _channel(self, src_stream: str, dst_stream: str) -> DXchgChannel:
        key = (src_stream, dst_stream)
        chan = self.channels.get(key)
        if chan is None:
            chan = DXchgChannel(self.fabric, self.node_of(src_stream),
                                self.node_of(dst_stream),
                                self.message_size, self.n_lanes)
            self.channels[key] = chan
        return chan

    @property
    def buffer_capacity_bytes(self) -> int:
        """Allocated sender-buffer capacity across all live channels."""
        return sum(ch.capacity_bytes for ch in self.channels.values())

    @property
    def messages_sent(self) -> int:
        return sum(ch.messages_sent for ch in self.channels.values())

    @property
    def senders_done(self) -> bool:
        """All sender fragments exhausted: ``tuples_in`` is final."""
        return self._started and self._open_senders == 0

    # --------------------------------------------------------- data path

    def note_template(self, batch: Batch) -> None:
        if self.template is None and batch.columns:
            self.template = batch

    def transfer(self, src_stream: str, batch: Batch) -> None:
        """Route one incoming vector: charge channels, enqueue pieces."""
        self.note_template(batch)
        if batch.n == 0:
            return
        self.tuples_in += batch.n
        for dest_stream, piece in self.route(src_stream, batch):
            if piece.n == 0:
                continue
            n_bytes = batch_bytes(piece)
            chan = self._channel(src_stream, dest_stream)
            before = chan.buffered
            chan.push(n_bytes, piece.n)
            self.bytes_sent += n_bytes
            self.tuples_sent += piece.n
            if chan.local:
                self.local_bytes += n_bytes
            else:
                delta = chan.buffered - before
                if delta > 0:
                    self.meter.hold(chan.src, delta)
                elif delta < 0:
                    self.meter.release(chan.src, -delta)
            queue = self.queues.get(dest_stream)
            if queue is not None:
                queue.append((n_bytes, piece))
                self._queued_bytes += n_bytes
                self.meter.hold(self.node_of(dest_stream), n_bytes)
        self._note_occupancy()

    def on_dequeue(self, dest_stream: str, n_bytes: int) -> None:
        self._queued_bytes -= n_bytes
        self.meter.release(self.node_of(dest_stream), n_bytes)

    def _note_occupancy(self) -> None:
        buffered = sum(ch.buffered for ch in self.channels.values())
        if buffered > self.peak_buffered:
            self.peak_buffered = buffered
        if self._queued_bytes > self.peak_queued:
            self.peak_queued = self._queued_bytes

    # ---------------------------------------------------------- pumping

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for sender in self.senders:
            sender.iterator = sender.execute()
        if not self.senders:
            self._finish()

    def pump(self) -> None:
        """Advance sender fragments.

        Streaming: every unfinished sender moves one vector (a scheduler
        round); the round costs the slowest stream's self time.
        Materialize: each sender is drained completely before any
        consumer sees data -- the stop-and-go baseline.
        """
        self.start()
        if self.finished:
            return
        times = []
        for sender in self.senders:
            total = 0.0
            while not sender.done:
                item, dt = self.scheduler.advance(sender.iterator)
                total += dt
                if item is DONE:
                    sender.done = True
                    self._open_senders -= 1
                if self.mode != MATERIALIZE:
                    break  # one vector per sender per round
            times.append(total)
        self.scheduler.charge_round(times)
        if self._open_senders == 0:
            self._finish()
        if self.watcher is not None:
            self.watcher(self)

    def close(self, flush: bool = True) -> None:
        """The query is over for this exchange.

        Sender fragments that a Limit/TopN root or a cancel left
        suspended are closed: their scan holds are released and their
        streams' seconds reach the profile. What the channels still hold
        is flushed -- or dropped when not ``flush``: a cancelled query
        sends no more. What is still parked in receive queues is held in
        the meter and is given back.
        """
        for sender in self.senders:
            if sender.iterator is not None:
                sender.iterator.close()
        self._finish(flush)
        for stream, queue in self.queues.items():
            while queue:
                n_bytes, _batch = queue.popleft()
                self._queued_bytes -= n_bytes
                self.meter.release(self.node_of(stream), n_bytes)

    def _finish(self, flush: bool = True) -> None:
        if self.finished:
            return
        # attribute the end-of-stream flush to the first sender's profile
        # explicitly: _finish may run from QueryRun.finish with no
        # operator executing (hence no ambient frame), or from a receiver
        # pump where the ambient node would be the wrong operator
        flush_node = self.senders[0].profile if self.senders else None
        flushed = sum(ch.buffered for ch in self.channels.values())
        if flush and flush_node is not None:
            with kernel("exchange.flush", nbytes=flushed, node=flush_node):
                self._close_channels(flush)
            flush_node.net_messages = self.messages_sent
        else:
            self._close_channels(flush)
        self.finished = True
        self._record_metrics()

    def _close_channels(self, flush: bool) -> None:
        for chan in self.channels.values():
            released = chan.buffered
            if flush:
                chan.close()
            else:
                chan.abort()
            if released > 0 and not chan.local:
                self.meter.release(chan.src, released)

    def _record_metrics(self) -> None:
        """Charge this exchange's lifetime totals and high-water marks to
        the fabric's registry (one series per exchange label). Runs
        once per exchange, so each family is looked up once."""
        reg = self.fabric.registry
        labels = {"exchange": self.label}
        reg.counter("exchange_bytes_total",
                    "Payload bytes routed through DXchg operators",
                    labels=("exchange",)).inc(self.bytes_sent, **labels)
        reg.counter("exchange_local_bytes_total",
                    "DXchg bytes that stayed intra-node (pointer passes)",
                    labels=("exchange",)).inc(self.local_bytes, **labels)
        reg.counter("exchange_messages_total",
                    "Whole MPI messages flushed by DXchg channels",
                    labels=("exchange",)).inc(self.messages_sent, **labels)
        reg.counter("exchange_tuples_total",
                    "Tuples routed through DXchg operators",
                    labels=("exchange",)).inc(self.tuples_sent, **labels)
        reg.gauge("exchange_peak_buffered_bytes",
                  "High-water mark of sender channel buffer occupancy",
                  labels=("exchange",)).set_max(self.peak_buffered, **labels)
        reg.gauge("exchange_peak_queued_bytes",
                  "High-water mark of receive-queue occupancy",
                  labels=("exchange",)).set_max(self.peak_queued, **labels)

    # ------------------------------------------------------------ stats

    def stats(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "bytes": self.bytes_sent,
            "local_bytes": self.local_bytes,
            "messages": self.messages_sent,
            "tuples": self.tuples_sent,
            "tuples_in": self.tuples_in,
            "peak_buffered_bytes": self.peak_buffered,
            "peak_queued_bytes": self.peak_queued,
            "buffer_capacity_bytes": self.buffer_capacity_bytes,
            # per node->node link, for EXPLAIN ANALYZE's wire breakdown
            "links": [
                {
                    "src": chan.src,
                    "dst": chan.dst,
                    "bytes": chan.bytes_pushed,
                    "tuples": chan.tuples_pushed,
                    "messages": chan.messages_sent,
                    "local": chan.local,
                }
                for _, chan in sorted(self.channels.items())
            ],
        }


class DXchgSender(Operator):
    """Sender half of a DXchg: split each vector by destination and push
    the pieces into the per-link channels. Driven by the scheduler, not
    pulled by a parent operator; yields what it forwarded so profiles
    show sent tuples."""

    def __init__(self, child: Operator, exchange: Exchange, stream: str):
        super().__init__([child])
        self.exchange = exchange
        self.stream = stream
        self.label = f"{exchange.label}.send"
        #: the running fragment, once the exchange started it
        self.iterator = None
        self.done = False

    def _run(self):
        for batch in self.children[0].execute():
            with kernel("exchange.serialize", rows=batch.n) as k:
                self.exchange.transfer(self.stream, batch)
                if batch.n:
                    nb = batch_bytes(batch)
                    k.account(nbytes=nb)
                    self.profile.net_bytes += nb
            yield batch


class DXchgReceiver(Operator):
    """Receiver half of a DXchg: re-form vectors from the pieces that
    have arrived (the paper's receivers build vectors from whole message
    buffers), pumping the sender fragments whenever the queue runs dry."""

    def __init__(self, exchange: Exchange, stream: str):
        super().__init__(())
        self.exchange = exchange
        self.stream = stream
        self.label = f"{exchange.label}.recv"

    def _run(self):
        return full_vectors(self._arrivals(), self.vector_size)

    def _arrivals(self):
        ex = self.exchange
        ex.start()
        queue = ex.queues[self.stream]
        while True:
            if queue:
                n_bytes, batch = queue.popleft()
                ex.on_dequeue(self.stream, n_bytes)
                self.profile.net_bytes += n_bytes
                yield batch
            elif not ex.finished:
                # hand on what has arrived rather than wait for a vector
                yield None
                ex.pump()
            else:
                break
        if ex.template is not None:
            # all-empty input: the schema must still cross the exchange
            yield Batch.empty_like(ex.template)
