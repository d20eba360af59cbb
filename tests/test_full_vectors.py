"""Full vectors across operator boundaries: the ``full_vectors`` helper
and what Select, HashJoin and DXchgReceiver do with it in a cluster."""

import numpy as np
import pytest

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import QueryCancelled
from repro.common.types import INT64
from repro.engine import exchange, operators
from repro.engine.batch import Batch, concat_batches, full_vectors
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LJoin, LLimit, LScan, LSelect
from repro.mpp.rewriter import RewriterFlags
from repro.storage import Column, TableSchema
from repro.storage.table import StoredTable


def _batch(start, n):
    names = np.empty(n, dtype=object)
    names[:] = [f"r{i}" for i in range(start, start + n)]
    return Batch({"a": np.arange(start, start + n), "s": names}, n)


def _stream(sizes):
    out, start = [], 0
    for n in sizes:
        out.append(_batch(start, n))
        start += n
    return out


class TestFullVectors:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_rows_in_full_vectors(self, seed):
        rng = np.random.default_rng(seed)
        vector = int(rng.choice([1, 4, 64]))
        sizes = rng.choice([0, 1, vector // 2, vector - 1, vector,
                            vector + 3, 3 * vector],
                           size=int(rng.integers(1, 30))).tolist()
        batches = _stream(sizes)
        out = list(full_vectors(iter(batches), vector))
        want, got = concat_batches(batches), concat_batches(out)
        assert list(got.columns) == ["a", "s"] and got.n == want.n
        for name in want.columns:
            assert got.columns[name].tolist() == want.columns[name].tolist()
            assert got.columns[name].dtype == want.columns[name].dtype
        for b in out[:-1]:
            assert b.n >= vector or any(b is given for given in batches)
        assert all(b.n for b in out) or len(out) == 1

    def test_a_full_batch_passes_through_by_identity(self):
        batches = _stream([4, 9, 4])
        out = list(full_vectors(iter(batches), 4))
        assert [a is b for a, b in zip(out, batches)] == [True] * 3

    def test_short_batches_wait_for_a_vector(self):
        out = list(full_vectors(iter(_stream([3, 0, 3, 3, 2])), 8))
        assert [b.n for b in out] == [9, 2]
        assert out[0].columns["a"].tolist() == list(range(9))

    def test_none_hands_on_what_is_held(self):
        first, second = _stream([3, 2])
        out = list(full_vectors(iter([None, first, None, None, second]), 8))
        assert out[0] is first and out[1] is second and len(out) == 2

    def test_all_empty_stream_yields_one_schema_batch(self):
        out = list(full_vectors(iter(_stream([0, 0, 0]) + [None]), 8))
        assert len(out) == 1 and out[0].n == 0
        assert out[0].columns["a"].dtype == np.int64
        assert out[0].columns["s"].dtype == object
        assert list(full_vectors(iter([]), 8)) == []

    def test_close_reaches_the_source(self):
        closed = []

        def source():
            try:
                yield from _stream([3, 3, 3, 3])
            finally:
                closed.append(True)

        vectors = full_vectors(source(), 4)
        assert next(vectors).n == 6
        vectors.close()
        assert closed == [True]


# ------------------------------------------------------- through the cluster

N_FACT, N_DIM = 6000, 5000
RESHUFFLE = RewriterFlags(local_join=False, replicate_build=False)


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "fact", [Column("pk", INT64), Column("fk", INT64),
                 Column("v", INT64)],
        partition_key=("pk",), n_partitions=8))
    c.create_table(TableSchema(
        "dim", [Column("dk", INT64), Column("w", INT64)],
        partition_key=("dk",), n_partitions=8))
    rng = np.random.RandomState(7)
    c.bulk_load("fact", {"pk": np.arange(N_FACT),
                         "fk": rng.randint(0, N_DIM, N_FACT),
                         "v": rng.randint(0, 1000, N_FACT)})
    c.bulk_load("dim", {"dk": np.arange(N_DIM),
                        "w": rng.randint(0, 50, N_DIM)})
    return c


def _join():
    return LJoin(build=LScan("dim", ["dk", "w"]),
                 probe=LScan("fact", ["fk", "v"]),
                 build_keys=["dk"], probe_keys=["fk"], how="inner")


def _profile(result, label):
    stack = list(result.profiles)
    while stack:
        node = stack.pop()
        if node.label == label:
            return node
        stack.extend(node.children)
    raise AssertionError(f"no {label} in the profile")


class TestThroughTheCluster:
    def test_limit_over_select_still_stops_its_input_early(self, monkeypatch):
        """Select now hands Limit up to one vector of qualifying rows
        instead of its first short batch: a constant number of scan
        pieces per stream, not the pieces each stream could scan."""
        c = VectorHCluster(n_nodes=2, config=Config().scaled_for_tests())
        c.create_table(TableSchema(
            "t", [Column("a", INT64), Column("b", INT64)],
            partition_key=("a",), n_partitions=2))
        a = np.arange(2 * 100 * c.config.vector_size)
        c.bulk_load("t", {"a": a, "b": a % 10})
        scanned = []
        pieces = StoredTable.scan_pieces

        def counting(*args, **kwargs):
            for piece in pieces(*args, **kwargs):
                scanned.append(piece.n_rows)
                yield piece

        monkeypatch.setattr(StoredTable, "scan_pieces", counting)
        plan = LLimit(LSelect(LScan("t", ["a", "b"]), Col("b") > 0), 5)
        assert c.query(plan).batch.n == 5
        assert 0 < len(scanned) <= 6
        assert all(v == 0 for v in c.workload.meter.current.values())

    def test_truncated_and_cancelled_joins_release_their_memory(self, cluster):
        result = cluster.query(LLimit(_join(), 5), flags=RESHUFFLE)
        assert result.batch.n == 5
        assert all(v == 0 for v in cluster.workload.meter.current.values())
        victim = cluster.submit(_join(), flags=RESHUFFLE)
        for _ in range(3):  # mid-flight: scans, builds and queues hold bytes
            cluster.workload.step()
        assert any(cluster.workload.meter.current.values())
        assert cluster.workload.cancel(victim)
        with pytest.raises(QueryCancelled):
            cluster.gather(victim)
        assert all(v == 0 for v in cluster.workload.meter.current.values())

    def test_re_formed_vectors_leave_the_wire_alone(self, cluster, monkeypatch):
        """What crosses a DXHashSplit is decided by its senders; the
        receivers only hand it on in fewer, fuller vectors."""
        plan = LAggr(_join(), ["w"], [("total", "sum", Col("v")),
                                      ("n", "count", None)])
        full = cluster.query(plan, flags=RESHUFFLE)

        def slivers(batches, vector_size):  # the pieces as they were cut
            return (b for b in batches if b is not None)

        monkeypatch.setattr(exchange, "full_vectors", slivers)
        monkeypatch.setattr(operators, "full_vectors", slivers)
        cut = cluster.query(plan, flags=RESHUFFLE)

        wire = ("label", "tuples", "bytes", "messages", "links",
                "peak_buffered_bytes", "peak_queued_bytes")
        assert [[ex[k] for k in wire] for ex in full.exchanges] == \
            [[ex[k] for k in wire] for ex in cut.exchanges]
        # the totals this plan moved before receivers re-formed vectors
        assert [(ex["label"], ex["tuples"], ex["bytes"], ex["messages"])
                for ex in full.exchanges] == [
            ("DXchgUnion", 50, 1200, 3),
            ("DXchgHashSplit[w]", 200, 4800, 12),
            ("DXchgHashSplit[dk]", 5000, 80000, 0),
            ("DXchgHashSplit[fk]", 6000, 96000, 24)]
        assert full.network_messages == cut.network_messages
        assert full.network_bytes == cut.network_bytes
        for label in ("DXchgHashSplit[fk].recv", "HashJoin(inner)[fk=dk]"):
            assert _profile(full, label).tuples_out == \
                _profile(cut, label).tuples_out == N_FACT
            assert _profile(full, label).batches < \
                _profile(cut, label).batches
        assert full.batch.columns["total"].tolist() == \
            cut.batch.columns["total"].tolist()
