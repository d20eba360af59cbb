"""Ablation: thread-to-thread vs thread-to-node DXchg (paper section 5).

The original DXchg partitioned to every receiver *thread*: with double
buffering that is ``2 * nodes * cores^2`` send buffers per node -- the
paper's example, 100 nodes x 20 cores x 256KB messages, needs 20GB of
buffer space per node and tends to materialize the exchange. The
thread-to-node variant reduces the fanout to ``nodes`` (2 * nodes * cores
buffers) at the price of a one-byte receiver-thread column per tuple.

We regenerate the buffer-memory table across cluster sizes and measure the
per-tuple overhead of the extra byte column on a real shuffle.
"""

import dataclasses

import numpy as np
import pytest

from benchmarks.conftest import write_report
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LJoin, LScan
from repro.mpp.rewriter import RewriterFlags
from repro.net.mpi import MpiFabric, dxchg_buffer_memory

MESSAGE = 256 * 1024


def test_dxchg_buffer_memory_table(benchmark):
    lines = ["ABLATION: DXchg sender buffer memory per node "
             "(256KB messages, double buffering)",
             f"{'nodes':>6} {'cores':>6} {'thread-to-thread':>18} "
             f"{'thread-to-node':>15} {'reduction':>10}"]
    for nodes, cores in [(6, 20), (10, 20), (50, 20), (100, 20), (100, 40)]:
        t2t = dxchg_buffer_memory(nodes, cores, MESSAGE,
                                  thread_to_node=False)
        t2n = dxchg_buffer_memory(nodes, cores, MESSAGE,
                                  thread_to_node=True)
        lines.append(f"{nodes:>6} {cores:>6} {t2t / 2**30:>16.1f}GB "
                     f"{t2n / 2**30:>13.2f}GB {t2t // t2n:>9}x")
        assert t2t // t2n == cores
    # the paper's example: 2 * 100 * 20^2 * 256KB = 20GB (decimal)
    assert dxchg_buffer_memory(100, 20, MESSAGE, False) == 20_971_520_000
    write_report("ablation_dxchg_memory.txt", "\n".join(lines))
    benchmark(dxchg_buffer_memory, 100, 20, MESSAGE, True)


def test_dxchg_tuple_overhead(benchmark):
    """Thread-to-node adds a one-byte receiver-thread column per tuple."""
    n = 100_000
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 30, n)
    n_nodes, n_cores = 9, 20

    def thread_to_node():
        dest_node = keys % n_nodes
        receiver_thread = (keys // n_nodes % n_cores).astype(np.uint8)
        return dest_node, receiver_thread

    def thread_to_thread():
        return keys % (n_nodes * n_cores)

    d1 = thread_to_node()
    d2 = thread_to_thread()
    assert len(d1[1]) == n and d2.max() < n_nodes * n_cores
    # extra payload: exactly one byte per tuple
    assert d1[1].nbytes == n
    benchmark(thread_to_node)


def test_dxchg_message_rounding_favors_fewer_buffers(benchmark):
    """Fewer, fuller buffers -> fewer (padded) MPI messages for the same
    data volume: the throughput argument for thread-to-node."""
    payload = 10 * MESSAGE + 1000
    t2t = MpiFabric(MESSAGE)
    fanout_t2t = 60  # 3 nodes x 20 threads
    for i in range(fanout_t2t):
        t2t.send("src", f"dst{i % 3}", payload // fanout_t2t)
    t2n = MpiFabric(MESSAGE)
    for i in range(3):
        t2n.send("src", f"dst{i}", payload // 3)
    assert t2n.total_messages < t2t.total_messages
    assert abs(t2n.total_bytes - t2t.total_bytes) < 64  # same data volume
    write_report(
        "ablation_dxchg_messages.txt",
        "ABLATION: same shuffle volume, message counts\n"
        f"thread-to-thread: {t2t.total_messages} messages\n"
        f"thread-to-node:   {t2n.total_messages} messages",
    )
    benchmark(lambda: MpiFabric(MESSAGE).send("a", "b", payload))


def test_dxchg_streaming_vs_materializing(vectorh, benchmark):
    """Streaming DXchg vs stop-and-go materialization on a TPC-H join.

    Both schedules push identical per-link bytes and message counts
    through the same channels; what changes is *when* -- the streaming
    schedule overlaps sender fragments and keeps only the open channel
    buffers plus a round's worth of receive queue resident, while the
    materializing schedule parks each fragment's full output before the
    consumer starts.
    """
    plan = LAggr(
        LJoin(build=LScan("orders", ["o_orderkey", "o_custkey"]),
              probe=LScan("lineitem", ["l_orderkey", "l_extendedprice"]),
              build_keys=["o_orderkey"], probe_keys=["l_orderkey"],
              how="inner"),
        [], [("revenue", "sum", Col("l_extendedprice")),
             ("n", "count", None)],
    )
    # force the reshuffle path (no co-located shortcut, no broadcast);
    # the flags also say how the exchanges run
    flags = RewriterFlags(local_join=False, replicate_build=False,
                          exchange_mode="streaming")

    vectorh.mpi.reset()
    streaming = vectorh.query(plan, flags=flags)
    s_links = (dict(vectorh.mpi.bytes_by_link),
               dict(vectorh.mpi.messages_by_link))
    vectorh.mpi.reset()
    materializing = vectorh.query(plan, flags=dataclasses.replace(
        flags, exchange_mode="materialize"))
    m_links = (dict(vectorh.mpi.bytes_by_link),
               dict(vectorh.mpi.messages_by_link))

    # identical wire accounting, identical answer
    assert s_links == m_links
    assert streaming.batch.columns["n"][0] == \
        materializing.batch.columns["n"][0]
    # the streaming pipeline never holds the exchanged volume in memory:
    # sender channel buffers track message size and fanout, not volume,
    # and receive queues stay about one pump round deep
    total_exchanged = sum(int(ex["bytes"]) for ex in streaming.exchanges)
    assert streaming.dxchg_peak_buffered_bytes < total_exchanged
    assert streaming.dxchg_peak_queued_bytes < \
        materializing.dxchg_peak_queued_bytes
    # node memory is comparable: with 256KB messages the channel buffers
    # hold most of this small shuffle in both schedules, and streaming
    # genuinely overlaps sender buffers with consumer state (materialize
    # releases the buffers before consumers start), so allow a sliver of
    # overlap slack
    assert streaming.peak_memory_bytes <= \
        1.05 * materializing.peak_memory_bytes

    lines = ["ABLATION: streaming vs materializing DXchg "
             "(lineitem x orders reshuffle)",
             "",
             f"{'':<28} {'streaming':>14} {'materializing':>14}"]
    for name, s_val, m_val in [
        ("network bytes", streaming.network_bytes,
         materializing.network_bytes),
        ("network messages", streaming.network_messages,
         materializing.network_messages),
        ("peak channel buffer bytes", streaming.dxchg_peak_buffered_bytes,
         materializing.dxchg_peak_buffered_bytes),
        ("peak receive queue bytes", streaming.dxchg_peak_queued_bytes,
         materializing.dxchg_peak_queued_bytes),
        ("peak node memory bytes", streaming.peak_memory_bytes,
         materializing.peak_memory_bytes),
    ]:
        lines.append(f"{name:<28} {s_val:>14,} {m_val:>14,}")
    lines.append(f"{'simulated parallel seconds':<28} "
                 f"{streaming.simulated_parallel_seconds:>14.4f} "
                 f"{materializing.simulated_parallel_seconds:>14.4f}")
    lines.append("")
    lines.append("per-exchange stats (streaming run):")
    for ex in streaming.exchanges:
        lines.append(
            f"  {ex['label']:<28} {int(ex['bytes']):>12,}B "
            f"{int(ex['messages']):>6} msgs "
            f"peak buffered {int(ex['peak_buffered_bytes']):>12,}B "
            f"of {int(ex['buffer_capacity_bytes']):>12,}B capacity, "
            f"peak queued {int(ex['peak_queued_bytes']):>12,}B")
    write_report("ablation_dxchg_streaming.txt", "\n".join(lines))
    benchmark(lambda: vectorh.query(plan, flags=flags).batch)
