"""Tests for the columnar store: blocks, chunks, partials, tables, PDTs."""

import struct

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import HdfsError, StorageError
from repro.common.types import DATE, DECIMAL, INT64, STRING
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.storage import (
    BufferPool,
    Column,
    PartitionStore,
    StoredTable,
    TableSchema,
)
from repro.storage.colstore import rows_per_block

NODES = ["n1", "n2", "n3"]


@pytest.fixture()
def config():
    return Config().scaled_for_tests()


@pytest.fixture()
def hdfs(config):
    return HdfsCluster(NODES, config, VectorHPlacementPolicy())


def simple_schema(**kwargs):
    return TableSchema(
        "t",
        [Column("k", INT64), Column("s", STRING)],
        **kwargs,
    )


@pytest.fixture()
def store(hdfs, config):
    return PartitionStore(hdfs, "/db/t/part-0000", simple_schema(), config)


def make_columns(n, offset=0):
    return {
        "k": np.arange(offset, offset + n, dtype=np.int64),
        "s": np.array([f"row{i % 13}" for i in range(n)], dtype=object),
    }


class TestPartitionStore:
    def test_append_and_read(self, store):
        store.append(make_columns(5000), writer="n1")
        assert store.n_stable == 5000
        out = store.read_column("k")
        assert np.array_equal(out, np.arange(5000))

    def test_thin_columns_pack_more_rows(self, config):
        # int64 blocks hold fewer rows than the same byte budget of... a
        # thin int32 DATE column holds twice as many.
        assert rows_per_block(DATE, config) == 2 * rows_per_block(
            INT64, config)

    @pytest.mark.parametrize("rare", (False, True))
    def test_pdict_blocks_decode_over_the_shared_dictionary(self, store,
                                                            rare):
        """A PDICT string block -- frequent strings only, or rare ones
        stored as exceptions too -- decodes straight to codes of the
        column's one dictionary object, whichever block it is."""
        cols = make_columns(3000)
        if rare:
            rare_rows = range(0, 3000, 97)
            cols["s"][rare_rows] = [f"rare-{i}" for i in rare_rows]
        store.append(cols, writer="n1")
        refs = store.blocks["s"]
        assert len(refs) > 1 and {r.scheme for r in refs} == {"PDICT"}
        exceptions = [struct.unpack_from(
            "<iiii", store.hdfs.read(r.path, r.offset, r.length),
            struct.calcsize("<BII"))[2] for r in refs]
        assert (sum(exceptions) > 0) == rare
        for ref in refs:  # a rare string grows the dictionary: a new one
            block = store._read_block(ref)
            assert block.dictionary is store.dictionaries.encode("s", [])[0]
        blocks = [store._read_block(ref) for ref in refs]
        shared = store.dictionaries.encode("s", [])[0]
        assert all(b.dictionary is shared for b in blocks)
        assert shared.tolist() == sorted(set(cols["s"].tolist()))
        assert [v for b in blocks for v in b.tolist()] == cols["s"].tolist()
        assert store.read_column("s").dictionary is shared

    def test_ragged_append_rejected(self, store):
        with pytest.raises(StorageError):
            store.append({"k": np.arange(3),
                          "s": np.array(["a"], object)})

    def test_missing_column_rejected(self, store):
        with pytest.raises(StorageError):
            store.append({"k": np.arange(3)})

    def test_range_read_touches_fewer_bytes(self, store, hdfs):
        store.append(make_columns(20000), writer="n1")
        hdfs.registry.reset("hdfs_")
        store.read_column("k", ranges=[(0, 100)], reader="n1")
        partial = hdfs.total_bytes_read()
        hdfs.registry.reset("hdfs_")
        store.read_column("k", reader="n1")
        assert partial < hdfs.total_bytes_read() / 2

    def test_stored_read_of_ranges_ending_inside_a_string_block(self, store):
        """Distinct strings are stored LZ or RAW and read back stored as
        a string image; a range ending inside such a block keeps it for
        the next range, which sizes the image."""
        cols = make_columns(3000)
        cols["s"] = np.array([f"unique-{i}" for i in range(3000)], object)
        store.append(cols, writer="n1")
        refs = store.blocks["s"]
        assert len(refs) > 1 and "PDICT" not in {r.scheme for r in refs}
        ranges = [(5, 10), (20, refs[1].row_start + 3)]
        image = store.read_column("s", ranges, stored=True)
        want = [v for lo, hi in ranges for v in cols["s"][lo:hi].tolist()]
        assert image.strings().tolist() == want

    def test_partial_block_merged_on_next_append(self, store, hdfs):
        store.append(make_columns(100), writer="n1")  # partial blocks
        partial_files = [p for p in store.file_paths() if "partial" in p]
        assert partial_files
        store.append(make_columns(100, offset=100), writer="n1")
        assert not any(hdfs.exists(p) for p in partial_files)
        out = store.read_column("k")
        assert np.array_equal(out, np.arange(200))

    def test_partials_of_columns_with_different_block_sizes(self, hdfs,
                                                             config):
        """Regression: thin columns pack more rows per block, so the
        columns' partial blocks start at different rows. The next append
        merged only the columns whose partial started first and wrote the
        others' new rows over stable ones (a tail flush of 16 inserts
        took a 15 019-row lineitem partition to 8 208 rows)."""
        schema = TableSchema("t", [Column("k", INT64), Column("d", DATE)])
        store = PartitionStore(hdfs, "/db/t/part-0000", schema, config)
        n = 3 * rows_per_block(INT64, config) + 7

        def rows(lo, hi):
            k = np.arange(lo, hi, dtype=np.int64)
            return {"k": k, "d": (k % 500).astype(np.int32)}

        store.append(rows(0, n), writer="n1")
        starts = {ref.row_start for ref in store._partial_refs.values()}
        assert len(starts) == 2
        store.append(rows(n, n + 16), writer="n1")
        store.append(rows(n + 16, n + 20), writer="n1")
        assert store.n_stable == n + 20
        for name, want in rows(0, n + 20).items():
            assert np.array_equal(store.read_column(name), want), name
        assert store.minmax.qualifying_ranges(
            [("k", ">=", n + 18)], n + 20)[-1][1] == n + 20
        assert store.minmax.qualifying_ranges([("k", "<", 5)], n + 20) == [
            (0, rows_per_block(INT64, config))]

    def test_chunk_rollover(self, store, config):
        # enough rows to exceed blocks_per_chunk blocks
        per_block = rows_per_block(INT64, config)
        rows = per_block * (config.blocks_per_chunk + 2)
        store.append(make_columns(rows), writer="n1")
        chunks = [p for p in store.file_paths() if "chunk" in p]
        assert len(chunks) >= 2

    def test_rewrite_replaces_content_and_files(self, store, hdfs):
        store.append(make_columns(5000), writer="n1")
        old_files = set(store.file_paths())
        store.rewrite(make_columns(10), writer="n1")
        assert store.n_stable == 10
        assert not (old_files & set(store.file_paths()))

    def test_minmax_built_per_block(self, store):
        store.append(make_columns(20000), writer="n1")
        ranges = store.minmax.qualifying_ranges([("k", "<", 100)], 20000)
        assert ranges and ranges[0][0] == 0
        assert ranges[-1][1] < 20000

    def test_bytes_per_column(self, store):
        store.append(make_columns(5000), writer="n1")
        sizes = store.bytes_per_column()
        assert sizes["k"] > 0 and sizes["s"] > 0


class TestStoredTable:
    def make_table(self, hdfs, config, **schema_kwargs):
        schema = TableSchema(
            "orders",
            [Column("k", INT64), Column("d", DATE), Column("price", DECIMAL),
             Column("s", STRING)],
            **schema_kwargs,
        )
        return StoredTable(hdfs, "/db", schema, config)

    def columns(self, n, rng=None):
        rng = rng or np.random.default_rng(0)
        return {
            "k": np.arange(n, dtype=np.int64),
            "d": rng.integers(8000, 9000, n).astype(np.int32),
            "price": np.round(rng.uniform(1, 100, n), 2),
            "s": np.array([f"s{i % 7}" for i in range(n)], dtype=object),
        }

    def test_partitioned_load_and_scan(self, hdfs, config):
        t = self.make_table(hdfs, config, partition_key=("k",),
                            n_partitions=4)
        t.bulk_load(self.columns(1000))
        total = sum(
            t.scan_partition(p, ["k"]).n_rows for p in range(4)
        )
        assert total == 1000

    def test_decimal_roundtrip_as_float(self, hdfs, config):
        t = self.make_table(hdfs, config)
        cols = self.columns(100)
        t.bulk_load(cols)
        out = t.scan_partition(0, ["price"]).columns["price"]
        assert out.dtype == np.float64
        assert np.allclose(np.sort(out), np.sort(cols["price"]))

    def test_decimal_skip_predicate_converts_literal(self, hdfs, config):
        t = self.make_table(hdfs, config)
        t.bulk_load(self.columns(5000))
        res = t.scan_partition(0, ["price"],
                               predicates=[("price", "<", 2.0)])
        assert (res.columns["price"] >= 0).all()
        # the merged result must still contain every qualifying row
        full = t.scan_partition(0, ["price"]).columns["price"]
        assert (res.columns["price"] < 2.0).sum() == (full < 2.0).sum()

    def test_clustered_load_sorts(self, hdfs, config):
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(2000))
        out = t.scan_partition(0, ["d"]).columns["d"]
        assert (np.diff(out) >= 0).all()

    def test_bulk_load_into_clustered_nonempty_rejected(self, hdfs, config):
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(100))
        with pytest.raises(StorageError):
            t.bulk_load(self.columns(100))

    def test_trickle_insert_visible_and_sorted(self, hdfs, config):
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(1000))
        trans = t.pdt[0].begin()
        t.insert_rows({"k": np.array([10**6]),
                       "d": np.array([8500], np.int32),
                       "price": np.array([9.99]),
                       "s": np.array(["new"], object)}, lambda _: trans)
        t.pdt[0].commit(trans)
        res = t.scan_partition(0, ["k", "d"])
        assert 10**6 in res.columns["k"]
        assert (np.diff(res.columns["d"]) >= 0).all()

    def test_tail_inserts_in_descending_key_order_stay_sorted(self, hdfs,
                                                              config):
        """Both rows sort past every stable one, so both are tail inserts;
        committed 9500 then 9200 they followed each other in that order
        through the scan -- and through the tail flush into the blocks."""
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(100))
        for key, day in ((10**6, 9500), (10**6 + 1, 9200)):
            trans = t.pdt[0].begin()
            t.insert_rows({"k": np.array([key]),
                           "d": np.array([day], np.int32),
                           "price": np.array([1.0]),
                           "s": np.array(["new"], object)}, lambda _: trans)
            t.pdt[0].commit(trans)
        for _ in range(2):  # merged from the PDT, then read from blocks
            res = t.scan_partition(0, ["k", "d"])
            assert res.columns["d"][-2:].tolist() == [9200, 9500]
            assert res.columns["k"][-2:].tolist() == [10**6 + 1, 10**6]
            assert t.propagate(0) in ("tail", "none")

    def test_partitions_share_one_dictionary_per_string_column(
            self, hdfs, config, monkeypatch):
        """Whatever PDICT block of whatever partition a string column is
        read from, it arrives over the table's one dictionary object --
        which grows (a new object) when a block holds strings it lacks."""
        from repro.engine.batch import DictColumn
        from repro.storage import colstore
        t = self.make_table(hdfs, config, partition_key=("k",),
                            n_partitions=3)
        cols = self.columns(600)
        cols["s"] = np.array([f"s{i % 7}" if i % 3 else f"only{i % 3}"
                              for i in range(600)], dtype=object)
        t.bulk_load(cols)
        first = t.scan_partition(0, ["k", "s"])
        held = first.columns["s"].tolist()
        scans = [t.scan_partition(pid, ["k", "s"]) for pid in range(3)]
        assert all(isinstance(r.columns["s"], DictColumn) for r in scans)
        shared = scans[-1].columns["s"].dictionary
        again = [t.scan_partition(pid, ["k", "s"]) for pid in range(3)]
        assert all(r.columns["s"].dictionary is shared for r in again)
        assert shared.tolist() == sorted(set(cols["s"].tolist()))
        # a column read before the dictionary grew still says the same
        assert first.columns["s"].tolist() == held
        by_key = dict(zip(cols["k"].tolist(), cols["s"].tolist()))
        for r in again:
            assert r.columns["s"].tolist() == [
                by_key[k] for k in r.columns["k"].tolist()]
        # past the limit every block keeps its own dictionary
        monkeypatch.setattr(colstore, "SHARED_DICTIONARY_LIMIT", 3)
        t2 = StoredTable(hdfs, "/db2", t.schema, config)
        t2.bulk_load(cols)
        own = [t2.scan_partition(pid, ["k", "s"]) for pid in range(3)] * 2
        assert len({id(r.columns["s"].dictionary) for r in own}) > 1
        for r in own:
            assert r.columns["s"].tolist() == [
                by_key[k] for k in r.columns["k"].tolist()]

    def test_delete_and_modify(self, hdfs, config):
        t = self.make_table(hdfs, config)
        t.bulk_load(self.columns(100))
        trans = t.pdt[0].begin()
        res = t.scan_partition(0, ["k"], trans=trans)
        t.delete_rows(0, res.identities[:10], trans)
        t.modify_rows(0, res.identities[10:11],
                      {"price": np.array([123.0])}, trans)
        t.pdt[0].commit(trans)
        after = t.scan_partition(0, ["k", "price"])
        assert after.n_rows == 90
        assert np.isclose(after.columns["price"][0], 123.0)

    def test_scan_with_predicate_sees_pdt_inserts(self, hdfs, config):
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(5000))
        trans = t.pdt[0].begin()
        t.insert_rows({"k": np.array([777777]),
                       "d": np.array([8100], np.int32),
                       "price": np.array([1.0]),
                       "s": np.array(["x"], object)}, lambda _: trans)
        t.pdt[0].commit(trans)
        res = t.scan_partition(0, ["k", "d"], predicates=[("d", "=", 8100)])
        assert 777777 in res.columns["k"]

    def test_propagation_tail_vs_full(self, hdfs, config):
        t = self.make_table(hdfs, config)  # unordered
        t.bulk_load(self.columns(500))
        trans = t.pdt[0].begin()
        t.insert_rows({"k": np.array([10**7]),
                       "d": np.array([8100], np.int32),
                       "price": np.array([5.0]),
                       "s": np.array(["t"], object)}, lambda _: trans)
        t.pdt[0].commit(trans)
        assert t.propagate(0) == "tail"
        trans = t.pdt[0].begin()
        res = t.scan_partition(0, ["k"], trans=trans)
        t.delete_rows(0, res.identities[:1], trans)
        t.pdt[0].commit(trans)
        assert t.propagate(0) == "full"
        assert t.propagate(0) == "none"
        assert t.scan_partition(0, ["k"]).n_rows == 500

    def test_propagation_preserves_image(self, hdfs, config):
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(1000))
        trans = t.pdt[0].begin()
        res = t.scan_partition(0, ["k"], trans=trans)
        t.delete_rows(0, res.identities[5:25], trans)
        t.insert_rows({"k": np.array([10**6]),
                       "d": np.array([8500], np.int32),
                       "price": np.array([1.5]),
                       "s": np.array(["n"], object)}, lambda _: trans)
        t.pdt[0].commit(trans)
        before = t.scan_partition(0, ["k", "d", "price", "s"])
        t.propagate(0)
        after = t.scan_partition(0, ["k", "d", "price", "s"])
        assert sorted(before.columns["k"]) == sorted(after.columns["k"])
        assert t.pdt[0].total_entries() == 0

    def _table_with_pending_rewrite(self, config):
        hdfs = HdfsCluster(NODES, config, VectorHPlacementPolicy())
        t = self.make_table(hdfs, config, clustered_on=("d",))
        t.bulk_load(self.columns(3000))
        trans = t.pdt[0].begin()
        res = t.scan_partition(0, ["k"], trans=trans)
        t.delete_rows(0, res.identities[5:25], trans)
        t.modify_rows(0, res.identities[40:41],
                      {"price": np.array([777.0])}, trans)
        t.insert_rows({"k": np.array([10**6]),
                       "d": np.array([8500], np.int32),
                       "price": np.array([1.5]),
                       "s": np.array(["n"], object)}, lambda _: trans)
        t.pdt[0].commit(trans)
        return hdfs, t

    def test_failed_rewrite_keeps_the_old_image(self, config, monkeypatch):
        names = ["k", "d", "price", "s"]

        def image(t):
            return {c: v.tolist()
                    for c, v in t.scan_partition(0, names).columns.items()}

        hdfs, t = self._table_with_pending_rewrite(config)
        real_append = HdfsCluster.append
        calls = []
        monkeypatch.setattr(
            hdfs, "append",
            lambda *a, **kw: (calls.append(a[0]), real_append(hdfs, *a, **kw)))
        assert t.propagate(0, writer="n1") == "full"
        assert len(calls) >= 8  # several blocks per column, and partials

        for failing in range(len(calls)):
            hdfs, t = self._table_with_pending_rewrite(config)
            before, files = image(t), t.partitions[0].file_paths()
            entries = t.pdt[0].total_entries()
            seen = []

            def append(path, data, writer=None):
                seen.append(path)
                if len(seen) == failing + 1:
                    raise HdfsError(f"injected: append #{failing} failed")
                real_append(hdfs, path, data, writer)

            with monkeypatch.context() as patch:
                patch.setattr(hdfs, "append", append)
                with pytest.raises(HdfsError, match="injected"):
                    t.propagate(0, writer="n1")
            # the old files, catalog and MinMax are all still there
            assert t.partitions[0].file_paths() == files
            assert t.pdt[0].total_entries() == entries
            assert image(t) == before
            hit = t.scan_partition(0, ["k"], predicates=[("d", "=", 8500)])
            assert 10**6 in hit.columns["k"]
            # and the retry goes through, onto fresh files
            assert t.propagate(0, writer="n1") == "full"
            assert image(t) == before
            assert not set(files) & set(t.partitions[0].file_paths())
            assert t.pdt[0].total_entries() == 0

    def test_needs_propagation_thresholds(self, hdfs, config):
        t = self.make_table(hdfs, config)
        t.bulk_load(self.columns(100))
        assert not t.needs_propagation(0)
        trans = t.pdt[0].begin()
        for i in range(30):  # > 10% of 100 stable rows
            t.insert_rows({"k": np.array([10**6 + i]),
                           "d": np.array([8100], np.int32),
                           "price": np.array([1.0]),
                           "s": np.array(["x"], object)}, lambda _: trans)
        t.pdt[0].commit(trans)
        assert t.needs_propagation(0)


class TestBufferPool:
    def test_hits_and_misses(self, hdfs):
        hdfs.write_file("/f", b"0123456789", "n1")
        pool = BufferPool(hdfs, capacity_bytes=1024)
        assert pool.read("/f", 0, 4, "n1") == b"0123"
        assert pool.read("/f", 0, 4, "n1") == b"0123"
        assert pool.hits == 1 and pool.misses == 1

    def test_eviction(self, hdfs):
        hdfs.write_file("/f", b"x" * 100, "n1")
        pool = BufferPool(hdfs, capacity_bytes=30)
        pool.read("/f", 0, 20, "n1")
        pool.read("/f", 20, 20, "n1")  # evicts the first range
        pool.read("/f", 0, 20, "n1")
        assert pool.misses == 3

    def test_prefetch_warms_cache(self, hdfs):
        hdfs.write_file("/f", b"abcdef", "n1")
        pool = BufferPool(hdfs)
        pool.prefetch("/f", 0, 6, "n1")
        pool.read("/f", 0, 6, "n1")
        assert pool.hits == 1 and pool.misses == 0

    def test_invalidate_prefix(self, hdfs):
        hdfs.write_file("/db/t/f", b"abc", "n1")
        pool = BufferPool(hdfs)
        pool.read("/db/t/f", 0, 3, "n1")
        pool.invalidate("/db/t/")
        pool.read("/db/t/f", 0, 3, "n1")
        assert pool.misses == 2
