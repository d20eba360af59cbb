"""Streaming DXchg integration tests: pipelined exchanges, accounting
equivalence with the materializing schedule, memory bounds, and the
regressions called out in the streaming-executor issue."""

import dataclasses

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.types import INT64
from repro.cluster import VectorHCluster
from repro.engine.exchange import (
    MATERIALIZE,
    STREAMING,
    MemoryMeter,
    StreamScheduler,
)
from repro.engine.expressions import Col
from repro.mpp import plan as P
from repro.mpp.executor import MASTER_STREAM
from repro.mpp.logical import LAggr, LJoin, LScan, LSelect
from repro.mpp.rewriter import RewriterFlags
from repro.mpp.plan import QueryPlan
from repro.storage import Column, TableSchema

N_FACT = 6000
# large enough that broadcasting it to every worker costs more than
# reshuffling both sides, so the rewriter picks DXHashSplit exchanges
N_DIM = 5000


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    # numeric columns only: their serialized size is exact, so streaming
    # and materializing runs must account identical bytes
    c.create_table(TableSchema(
        "fact", [Column("pk", INT64), Column("fk", INT64),
                 Column("v", INT64)],
        partition_key=("pk",), n_partitions=8))
    c.create_table(TableSchema(
        "dim", [Column("dk", INT64), Column("w", INT64)],
        partition_key=("dk",), n_partitions=8))
    rng = np.random.RandomState(7)
    c.bulk_load("fact", {
        "pk": np.arange(N_FACT),
        "fk": rng.randint(0, N_DIM, N_FACT),
        "v": rng.randint(0, 1000, N_FACT),
    })
    c.bulk_load("dim", {"dk": np.arange(N_DIM),
                        "w": rng.randint(0, 50, N_DIM)})
    return c


def _join_plan():
    # joining fact.fk to dim.dk: neither side is partitioned on its join
    # key, so the rewriter must move data through exchanges
    return LAggr(
        LJoin(build=LScan("dim", ["dk", "w"]),
              probe=LScan("fact", ["fk", "v"]),
              build_keys=["dk"], probe_keys=["fk"], how="inner"),
        ["w"], [("total", "sum", Col("v")), ("n", "count", None)],
    )


# disable locality shortcuts so both join sides go through plain hash
# splits -- a pure streaming reshuffle with no co-located fast path
RESHUFFLE = RewriterFlags(local_join=False, replicate_build=False)
#: RESHUFFLE under each DXchg schedule (the flags say how a plan runs)
STREAMED = dataclasses.replace(RESHUFFLE, exchange_mode=STREAMING)
MATERIALIZED = dataclasses.replace(RESHUFFLE, exchange_mode=MATERIALIZE)


class TestStreamingEquivalence:
    def test_streaming_matches_materializing_accounting(self, cluster):
        """Per-link bytes and message counts are schedule-independent."""
        plan = _join_plan()
        cluster.mpi.reset()
        streaming = cluster.query(plan, flags=STREAMED)
        stream_links = (dict(cluster.mpi.bytes_by_link),
                        dict(cluster.mpi.messages_by_link))
        cluster.mpi.reset()
        materialize = cluster.query(plan, flags=MATERIALIZED)
        mat_links = (dict(cluster.mpi.bytes_by_link),
                     dict(cluster.mpi.messages_by_link))
        assert stream_links == mat_links
        assert streaming.network_bytes == materialize.network_bytes
        assert streaming.network_messages == materialize.network_messages
        # same answer, of course
        assert streaming.batch.n == materialize.batch.n
        assert sorted(streaming.batch.columns["total"]) == \
            sorted(materialize.batch.columns["total"])

    def test_streaming_peak_below_total_exchanged(self, cluster):
        """The tentpole claim: pipelining keeps exchange memory bounded by
        the channel buffers and a round's worth of receive queue, far
        below the data volume that crosses the exchanges (which is what
        stop-and-go materialization holds)."""
        streaming = cluster.query(_join_plan(), flags=STREAMED)
        total_exchanged = sum(int(ex["bytes"]) for ex in streaming.exchanges)
        assert total_exchanged > 0
        # channel buffers flush as whole messages fill: the high-water
        # mark tracks message size and fanout, not data volume
        assert streaming.dxchg_peak_buffered_bytes < total_exchanged
        materialize = cluster.query(_join_plan(), flags=MATERIALIZED)
        # the materializing schedule parks each fragment's entire output
        # in the receive queues before any consumer starts
        assert streaming.dxchg_peak_queued_bytes < \
            materialize.dxchg_peak_queued_bytes

    def test_peak_node_memory_reported_and_lower_when_streaming(self, cluster):
        streaming = cluster.query(_join_plan(), flags=STREAMED)
        materialize = cluster.query(_join_plan(), flags=MATERIALIZED)
        assert set(streaming.peak_node_memory) <= \
            set(cluster.workers) | {cluster.session_master}
        assert streaming.peak_memory_bytes > 0
        assert streaming.peak_memory_bytes <= materialize.peak_memory_bytes


class TestQueryResultSurface:
    def test_exchange_stats_exposed(self, cluster):
        result = cluster.query(_join_plan(), flags=RESHUFFLE)
        assert result.exchanges, "no exchange stats collected"
        labels = [str(ex["label"]) for ex in result.exchanges]
        assert any("HashSplit" in lbl for lbl in labels)
        assert any("Union" in lbl for lbl in labels)
        assert result.exchange_messages > 0
        for ex in result.exchanges:
            assert ex["buffer_capacity_bytes"] >= 0
            assert ex["peak_buffered_bytes"] >= 0
            assert ex["peak_queued_bytes"] >= 0

    def test_profile_tree_spans_exchanges(self, cluster):
        result = cluster.query(_join_plan(), flags=RESHUFFLE)
        assert len(result.profiles) == 1  # one spanning tree
        text = result.format_profile()
        assert ".recv" in text and ".send" in text
        assert "net =" in text  # byte/message annotations rendered

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        nodes = list(walk(result.profiles[0]))
        senders = [n for n in nodes if n.label.endswith(".send")]
        assert senders
        assert any(n.net_bytes > 0 for n in senders)
        assert any(n.net_messages > 0 for n in senders)
        # the scan runs inside the pipeline: it must appear under an
        # exchange sender in the same tree, not as a separate fragment
        assert any("MScan[fact]" in n.label for n in nodes)

    def test_thread_to_thread_allocates_more_buffer_capacity(self, cluster):
        t2n = cluster.query(_join_plan(), flags=RESHUFFLE)
        t2t = cluster.query(_join_plan(), flags=dataclasses.replace(
            RESHUFFLE, thread_to_node=False))
        cores = cluster.config.cores_per_node
        cap_t2n = sum(int(ex["buffer_capacity_bytes"]) for ex in t2n.exchanges)
        cap_t2t = sum(int(ex["buffer_capacity_bytes"]) for ex in t2t.exchanges)
        assert cap_t2t == cores * cap_t2n
        # both deliver the same rows
        assert t2n.batch.n == t2t.batch.n


class TestRegressions:
    def test_empty_partition_schema_survives_exchange(self, cluster):
        """All-empty input must still deliver column names and dtypes
        through DXchg (the empty-batch/template dedupe regression)."""
        plan = LSelect(LScan("fact", ["pk", "fk", "v"]),
                       Col("pk") > 10 ** 9)
        result = cluster.query(plan)
        assert result.batch.n == 0
        assert set(result.batch.columns) == {"pk", "fk", "v"}
        for col in result.batch.columns.values():
            assert col.dtype == np.int64

    def test_repeat_execution_is_stable(self, cluster):
        """The per-run context must not leak state between runs of one
        plan (the old executor memoized by id(phys), which can alias)."""
        from repro.mpp.rewriter import ParallelRewriter
        qplan = ParallelRewriter(cluster, RESHUFFLE).plan(_join_plan())
        first = cluster.query(qplan)
        second = cluster.query(qplan)
        assert first.batch.n == second.batch.n
        assert first.network_bytes == second.network_bytes
        assert first.network_messages == second.network_messages
        assert sorted(first.batch.columns["n"]) == \
            sorted(second.batch.columns["n"])

    def test_exchange_source_stream_selection(self, cluster):
        """Exchange senders run where the child distribution lives:
        master-side children send from the master stream (the dead-ternary
        fix), partitioned children from every worker, replicated children
        from one representative worker -- all against the run context's
        prepare-time snapshot of the worker set."""
        from repro.mpp.executor import _RunContext
        executor = cluster.executor
        ctx = _RunContext(trans=None, mode="streaming", n_lanes=1,
                          vector_size=128, scheduler=StreamScheduler(),
                          meter=MemoryMeter(), workers=cluster.workers,
                          session_master=cluster.session_master)
        part_scan = P.PScan("fact", ["pk"], [], P.Distribution(
            P.PARTITIONED, ("pk",), co_location="fact"))
        master_child = P.DXUnion(part_scan)
        repl_child = P.DXBroadcast(part_scan)
        assert executor._source_streams(master_child, ctx) == [MASTER_STREAM]
        assert executor._source_streams(repl_child, ctx) == \
            [cluster.workers[0]]
        assert executor._source_streams(part_scan, ctx) == \
            list(cluster.workers)

    def test_master_side_child_sends_from_master(self, cluster):
        """End to end: splitting a master-resident relation back across
        the workers must put bytes on master->worker links."""
        scan = P.PScan("fact", ["pk"], [], P.Distribution(
            P.PARTITIONED, ("pk",), co_location="fact"))
        phys = P.DXHashSplit(P.DXUnion(scan), ["pk"])
        cluster.mpi.reset()
        result = cluster.query(QueryPlan(logical=None, root=phys))
        assert result.batch.n == N_FACT
        master = cluster.session_master
        outbound = [link for link in cluster.mpi.bytes_by_link
                    if link[0] == master and link[1] != master]
        assert outbound, "no master->worker traffic recorded"
