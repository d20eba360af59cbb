"""The scan filters.

Bottom up: the word-at-a-time ``unpack_bits`` kernel and the bulk-patched
scheme decoders; literals in storage terms; and
``StoredTable.scan_partition`` applying its predicate triples exactly --
never stricter than SQL, PDT-correct, identities row-aligned.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import CompressionError
from repro.common.types import (
    DATE, DECIMAL, FLOAT64, INT32, INT64, STRING,
)
from repro.compression import (
    compress_best, decompress, pack_bits, unpack_bits,
)
from repro.compression.base import SCHEMES
from repro.compression.bitpack import packed_size
from repro.engine.expressions import Col
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.sql import execute_sql
from repro.storage import Column, StoredTable, TableSchema, colstore
from repro.storage.minmax import OPS

OPERATORS = sorted(OPS)


def _obj(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


# ------------------------------------------------------------ unpack_bits

class TestUnpackKernel:
    @given(st.integers(1, 32), st.integers(0, 700), st.integers(0, 2**32),
           st.sampled_from([np.int64, np.int32, np.intp]))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_any_width_and_count(self, width, count, seed, dtype):
        """Counts that are no multiple of 8 or 64, streams ending mid-word,
        every width: unpack is the inverse of pack."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << width, count)
        if count:
            codes[rng.integers(count)] = (1 << width) - 1
        packed = pack_bits(codes, width)
        assert len(packed) == packed_size(count, width)
        out = unpack_bits(packed, width, count, dtype)
        assert out.dtype == dtype and len(out) == count
        # a 32-bit code wraps on its way into a 32-bit dtype
        assert np.array_equal(out.astype(np.int64) % (1 << 32)
                              if width == 32 else out, codes)
        # what follows the stream is never looked at
        assert np.array_equal(
            unpack_bits(memoryview(packed + b"\xff" * 9), width, count,
                        dtype), out)

    @given(st.integers(1, 32), st.integers(1, 700))
    @settings(max_examples=150, deadline=None)
    def test_short_stream_raises(self, width, count):
        packed = pack_bits(np.zeros(count, dtype=np.int64), width)
        with pytest.raises(CompressionError):
            unpack_bits(packed[:-1], width, count)

    def test_a_narrow_plan_serves_every_shorter_block(self):
        """A narrow output is one gather through a per-width plan as long
        as the longest block so far: a longer block grows it, a shorter
        one reads its prefix; 64-bit outputs and widths past NARROW_WIDTH
        take the 64-bit windows."""
        from repro.compression import bitpack
        codes = np.random.default_rng(3).integers(0, 1 << 13, 3 * 2048 + 17)
        packed = pack_bits(codes, 13)
        for count in (2048, 3 * 2048 + 17, 100):
            for dtype in (np.int32, np.int64):
                assert np.array_equal(
                    unpack_bits(packed, 13, count, dtype), codes[:count])
        assert len(bitpack._NARROW_PLANS[13][0]) >= 3 * 2048 + 17
        wide = (1 << bitpack.NARROW_WIDTH + 1) - 1
        assert unpack_bits(pack_bits([wide, 1, wide], 26), 26, 3,
                           np.int32).tolist() == [wide, 1, wide]

    def test_unsupported_width(self):
        with pytest.raises(CompressionError):
            unpack_bits(b"\x00" * 64, 33, 4)


# ------------------------------------------- decode kernels per scheme

def _assert_every_scheme_round_trips(values, ctype):
    for scheme in SCHEMES.values():
        if not scheme.can_compress(values, ctype):
            continue
        out = scheme.decompress(scheme.compress(values, ctype), ctype)
        assert out.dtype == values.dtype, scheme.name
        assert np.array_equal(out, values), scheme.name
    assert np.array_equal(
        decompress(compress_best(values, ctype), ctype), values)


class TestPatchedDecode:
    """One chain walk + one bulk scatter, straight into the column dtype."""

    @given(st.integers(-10**9, 10**9),
           st.sampled_from([1, 3, 40, 5000, 10**6]),
           st.integers(1, 400), st.integers(0, 6), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_integers_with_exceptions_and_negative_bases(
            self, base, spread, n, outliers, seed):
        rng = np.random.default_rng(seed)
        values = base + rng.integers(0, spread, n)
        for _ in range(outliers):
            values[rng.integers(n)] = base + int(rng.integers(0, 2**40))
        _assert_every_scheme_round_trips(values.astype(np.int64), INT64)

    def test_compulsory_exceptions(self):
        """Two far-apart outliers under a 1-bit code: every hop of the
        chain between them is a compulsory exception."""
        values = np.random.default_rng(5).integers(0, 2, 1000)
        values[0] = values[-1] = 10**12
        block = SCHEMES["PFOR"].compress(values, INT64)
        _, width, _, n_exc = np.frombuffer(
            block.data[:20], dtype=np.dtype("<i8,<i4,<i4,<i4"))[0]
        assert width == 1 and n_exc > 900
        _assert_every_scheme_round_trips(values, INT64)

    def test_narrow_dtypes_and_negative_bases(self):
        # codes wider than the dtype wrap on the way in and back with base
        values = np.array([-2**31, -7, 0, 2**31 - 1, 12, -2**31],
                          dtype=np.int32)
        _assert_every_scheme_round_trips(values, INT32)
        _assert_every_scheme_round_trips(
            np.arange(8000, 8400, dtype=np.int32), DATE)

    @given(st.lists(st.sampled_from(["AIR", "MAIL", "RAIL", "SHIP", "zz",
                                     "", "né"]), min_size=1, max_size=200),
           st.lists(st.text(max_size=4), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_string_dictionaries_with_exceptions(self, common, rare):
        _assert_every_scheme_round_trips(_obj(common + rare), STRING)

    def test_empty_blocks(self):
        _assert_every_scheme_round_trips(np.zeros(0, dtype=np.int64), INT64)
        _assert_every_scheme_round_trips(_obj([]), STRING)


# ---------------------------------------------- literals in storage terms

class TestStorageLiteral:
    def test_decimal_rounds_in_the_loosening_direction(self):
        dec = DECIMAL  # scale 2
        assert dec.storage_literal("<", 0.025) == 3
        assert dec.storage_literal(">=", 0.025) == 3
        assert dec.storage_literal("<=", 0.025) == 2
        assert dec.storage_literal(">", 0.025) == 2
        assert dec.storage_literal("=", 0.025) is None
        assert dec.storage_literal(">", 0.015) == 1
        assert dec.storage_literal("<", -0.025) == -2

    @pytest.mark.parametrize("op", OPERATORS)
    def test_representable_products_are_that_integer(self, op):
        # 0.07 * 100 == 7.000000000000001, 0.29 * 100 == 28.999999999999996
        assert DECIMAL.storage_literal(op, 0.07) == 7
        assert DECIMAL.storage_literal(op, 0.29) == 29
        assert DECIMAL.storage_literal(op, 24) == 2400
        assert DECIMAL.storage_literal(op, 24.0) == 2400

    @given(st.floats(-1e6, 1e6), st.sampled_from(OPERATORS),
           st.sampled_from([0, 2, 4]))
    @settings(max_examples=300, deadline=None)
    def test_never_stricter_than_the_engine(self, literal, op, digits):
        """The engine compares ``stored / scale`` with the literal; the
        storage-side term keeps every stored value the engine keeps (and,
        where one exists, nothing else)."""
        ctype = DECIMAL.with_scale(digits) if digits else INT64
        scale = 10 ** digits
        term = ctype.storage_literal(op, literal)
        around = int(literal * scale)
        stored = np.arange(around - 3, around + 4, dtype=np.int64)
        engine = OPS[op](stored.astype(np.float64) / scale, literal)
        if term is None:
            assert op == "=" and not engine.any()
        else:
            assert np.array_equal(OPS[op](stored, term), engine)

    def test_incomparable_literals_make_no_term(self):
        assert INT64.storage_literal("<", "abc") is None
        assert STRING.storage_literal("=", 3) is None
        assert INT64.storage_literal("=", True) is None
        assert DECIMAL.storage_literal("<", float("nan")) is None
        assert DECIMAL.storage_literal("<", float("inf")) is None
        assert INT64.storage_literal("=", None) is None
        assert STRING.storage_literal(">=", "m") == "m"
        assert FLOAT64.storage_literal("<", 2.5) == 2.5
        assert INT64.storage_literal("<", np.int64(7)) == 7

    def test_an_in_list_is_its_sorted_values_or_no_term(self):
        assert DECIMAL.storage_literal("in", (0.07, 0.05, 0.07)).tolist() \
            == [5, 7]
        assert STRING.storage_literal("in", ("SHIP", "AIR")).tolist() == [
            "AIR", "SHIP"]
        # one value the column cannot hold exactly drops the whole triple
        assert DECIMAL.storage_literal("in", (0.05, 0.075)) is None
        assert INT64.storage_literal("in", (1, None)) is None

    def test_in_on_a_coded_column_reads_only_the_entries(self, monkeypatch):
        from repro.engine.batch import DictColumn
        from repro.storage.minmax import TRIPLE_OPS
        coded = DictColumn.encode(["AIR", "MAIL", "SHIP", "AIR", "RAIL"])

        def gathered(*_args, **_kwargs):
            raise AssertionError("a string per row was gathered")

        monkeypatch.setattr(DictColumn, "__array__", gathered)
        wanted = STRING.storage_literal("in", ("SHIP", "AIR"))
        assert TRIPLE_OPS["in"](coded, wanted).tolist() == [
            True, False, True, True, False]


# --------------------------------------------------- DECIMAL through SQL

@pytest.fixture()
def measures():
    """Clustered DECIMAL table whose first 5 000 rows are all 0.02."""
    cluster = VectorHCluster(n_nodes=2, config=Config().scaled_for_tests())
    cluster.create_table(TableSchema(
        "m", [Column("k", INT64), Column("qty", DECIMAL)],
        clustered_on=("qty",)))
    n = 20000
    qty = np.concatenate([np.full(5000, 0.02),
                          np.round(np.linspace(0.3, 50, n - 5000), 2)])
    cluster.bulk_load("m", {"k": np.arange(n), "qty": qty})
    return cluster


class TestDecimalLiteralNotAtScale:
    """Regression: ``int(round(literal * scale))`` whatever the operator
    turned ``qty < 0.025`` into ``< 2`` and MinMax pruned qualifying
    blocks (0 and 904 rows instead of 5 000)."""

    def count(self, cluster, where):
        out = execute_sql(cluster, f"SELECT count(*) AS n FROM m WHERE {where}")
        return int(out.columns["n"][0])

    def test_literal_between_two_stored_values(self, measures):
        assert self.count(measures, "qty < 0.025") == 5000
        assert self.count(measures, "qty > 0.015 AND qty < 0.3") == 5000
        assert self.count(measures, "qty <= 0.025") == 5000
        assert self.count(measures, "qty >= 0.015 AND qty <= 0.025") == 5000
        assert self.count(measures, "qty = 0.025") == 0
        assert self.count(measures, "qty = 0.02") == 5000
        assert self.count(measures, "qty > 0.025") == 15000

    def test_resolve_minmax_keeps_the_qualifying_ranges(self, measures):
        from repro.mpp.logical import LScan, LSelect
        answers = measures.resolve_minmax(
            LSelect(LScan("m", ["k", "qty"]), Col("qty") < 0.025))
        ranges = answers["m/0"]
        assert ranges and ranges[0][0] == 0 and ranges[-1][1] >= 5000
        strict = measures.resolve_minmax(
            LSelect(LScan("m", ["k", "qty"]), Col("qty") < 0.02))
        assert strict["m/0"] == []


# ------------------------------------------------- scan_partition proper

NODES = ["n1", "n2", "n3"]


def _table(clustered=False, block_size=1024):
    config = dataclasses.replace(Config().scaled_for_tests(),
                                 block_size=block_size)
    hdfs = HdfsCluster(NODES, config, VectorHPlacementPolicy())
    schema = TableSchema(
        "t", [Column("k", INT64), Column("d", DATE), Column("price", DECIMAL),
              Column("s", STRING)],
        clustered_on=("k",) if clustered else ())
    return StoredTable(hdfs, "/db", schema, config)


def _rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "k": np.arange(n, dtype=np.int64) * 2,
        "d": rng.integers(8000, 8100, n).astype(np.int32),
        "price": np.round(rng.uniform(0, 50, n), 2),
        "s": _obj(rng.choice(["AIR", "MAIL", "SHIP"], n)),
    }


class TestScanPartitionFilter:
    def test_only_qualifying_rows_leave_with_aligned_identities(self):
        t = _table()
        rows = _rows(3000)
        t.bulk_load(rows)
        res = t.scan_partition(0, ["k", "price"],
                               [("d", ">=", 8040), ("d", "<", 8050),
                                ("s", "=", "MAIL")])
        keep = ((rows["d"] >= 8040) & (rows["d"] < 8050)
                & (rows["s"] == "MAIL"))
        assert res.n_rows == keep.sum() > 0
        assert np.array_equal(res.columns["k"], rows["k"][keep])
        assert np.allclose(res.columns["price"], rows["price"][keep])
        assert np.array_equal(res.identities, np.flatnonzero(keep))
        # the predicate columns were read for the mask, not returned
        assert sorted(res.columns) == ["k", "price"]

    def test_blocks_without_a_survivor_are_not_decoded(self, monkeypatch):
        t = _table(clustered=True)
        rows = _rows(3000)
        rows["d"] = np.sort(rows["d"])[::-1].copy()  # not the cluster key
        t.bulk_load(rows)
        decoded = []
        real = colstore.decompress
        monkeypatch.setattr(
            colstore, "decompress",
            lambda block, ctype: (decoded.append(block), real(block, ctype))[1])
        # one key: MinMax leaves one block-range of k, the filter one row
        res = t.scan_partition(0, ["k", "s", "price"], [("k", "=", 4000)])
        assert res.n_rows == 1 and res.columns["s"][0] == rows["s"][2000]
        assert len(decoded) == 3  # one block per requested column
        decoded.clear()
        # k is read for the filter (one block) and no payload block at all
        res = t.scan_partition(0, ["s", "price"], [("k", "=", 4001)])
        assert res.n_rows == 0 and len(decoded) == 1
        assert sorted(res.columns) == ["price", "s"]
        assert res.columns["price"].dtype == np.float64

    def test_qualifying_insert_in_a_block_range_without_survivors(self):
        """MinMax lets the range through (widened by the insert); no stable
        row in it qualifies; the insert must still come out."""
        t = _table(clustered=True)
        rows = _rows(2000)
        rows["d"][:] = 8000
        t.bulk_load(rows)
        trans = t.pdt[0].begin()
        t.insert_rows({"k": np.array([2001]),
                       "d": np.array([9000], np.int32),
                       "price": np.array([1.25]),
                       "s": _obj(["new"])}, lambda _: trans)
        inside = t.scan_partition(0, ["k", "s"], [("d", ">", 8500)],
                                  trans=trans)
        assert inside.columns["k"].tolist() == [2001]
        assert inside.columns["s"].tolist() == ["new"]
        assert inside.identities[0] < 0  # an insert's identity
        assert t.scan_partition(0, ["k"], [("d", ">", 8500)]).n_rows == 0
        t.pdt[0].commit(trans)
        after = t.scan_partition(0, ["k"], [("d", ">", 8500)])
        assert after.columns["k"].tolist() == [2001]

    def test_modify_is_tested_on_its_new_value(self):
        t = _table()
        rows = _rows(2000)
        rows["d"][:] = 8000
        t.bulk_load(rows)
        trans = t.pdt[0].begin()
        full = t.scan_partition(0, ["k"], trans=trans)
        t.modify_rows(0, full.identities[1500:1501],
                      {"d": np.array([9000], np.int32)}, trans)
        t.delete_rows(0, full.identities[10:11], trans)
        t.pdt[0].commit(trans)
        hit = t.scan_partition(0, ["k"], [("d", "=", 9000)])
        assert hit.columns["k"].tolist() == [3000]
        assert hit.identities.tolist() == [1500]
        old = t.scan_partition(0, ["k"], [("d", "=", 8000)])
        assert old.n_rows == 1998
        assert not {20, 3000} & set(old.columns["k"].tolist())

    def test_modified_insert_is_found_by_its_new_value(self):
        """A modify of a row the PDT inserted widens MinMax where that
        insert is anchored (it used to widen the range of row 0): pruning
        on the new value must keep the insert's range. Wrong at the
        parent too, whose scan pruned with the same MinMax."""
        t = _table(clustered=True)
        rows = _rows(3000)
        rows["d"] = (8000 + np.arange(3000) // 500).astype(np.int32)
        t.bulk_load(rows)
        trans = t.pdt[0].begin()
        t.insert_rows({"k": np.array([5001]),
                       "d": np.array([8005], np.int32),
                       "price": np.array([1.25]),
                       "s": _obj(["new"])}, lambda _: trans)
        t.pdt[0].commit(trans)
        trans = t.pdt[0].begin()
        image = t.scan_partition(0, ["k"], trans=trans)
        row = np.flatnonzero(image.columns["k"] == 5001)
        t.modify_rows(0, image.identities[row],
                      {"d": np.array([7000], np.int32)}, trans)
        hit = t.scan_partition(0, ["k", "d"], [("d", "<", 7500)],
                               trans=trans)
        assert hit.columns["k"].tolist() == [5001]
        assert hit.columns["d"].tolist() == [7000]
        t.pdt[0].commit(trans)
        assert t.scan_partition(
            0, ["k"], [("d", "=", 7000)]).columns["k"].tolist() == [5001]

    def test_unanswerable_triples_are_skipped_not_raised(self):
        t = _table()
        rows = _rows(500)
        t.bulk_load(rows)
        res = t.scan_partition(0, ["k"], [("k", "<", "abc"),
                                          ("s", "=", 7),
                                          ("d", "like", "8%"),
                                          ("price", "=", 0.001)])
        assert res.n_rows == 500

    def test_decoding_the_largest_block_stays_within_4x_its_output(
            self, monkeypatch):
        config = dataclasses.replace(Config().scaled_for_tests(),
                                     block_size=32 * 1024)
        hdfs = HdfsCluster(NODES, config, VectorHPlacementPolicy())
        rng = np.random.default_rng(7)
        n = 20000
        cols = {
            "k": np.arange(n, dtype=np.int64),
            "d": rng.integers(8000, 10500, n).astype(np.int32),
            "price": np.round(rng.uniform(900, 90000, n), 2),
            "s": _obj(rng.choice(["AIR", "MAIL", "SHIP", "RAIL"], n)),
        }
        t = StoredTable(hdfs, "/db", TableSchema(
            "t", [Column("k", INT64), Column("d", DATE),
                  Column("price", DECIMAL), Column("s", STRING)]), config)
        t.bulk_load(cols)
        store = t.partitions[0]
        ref = max((r for refs in store.blocks.values() for r in refs),
                  key=lambda r: (r.n_rows, r.length))
        assert ref.n_rows == 8192  # the int32 column's full blocks
        seen = []
        monkeypatch.setattr(colstore, "decompress",
                            lambda block, ctype: seen.append((block, ctype)))
        store._read_block(ref)
        monkeypatch.undo()
        (block, ctype), = seen
        decompress(block, ctype)  # warm imports and caches
        tracemalloc.start()
        out = decompress(block, ctype)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 * out.nbytes


class TestObservability:
    def test_filter_kernel_counter_and_explain(self):
        cluster = VectorHCluster(n_nodes=2,
                                 config=Config().scaled_for_tests())
        cluster.create_table(TableSchema(
            "t", [Column("a", INT64), Column("b", INT64)],
            partition_key=("a",), n_partitions=2))
        cluster.bulk_load("t", {"a": np.arange(8000),
                                "b": np.arange(8000) % 7})
        out = execute_sql(cluster, "explain analyze select count(*) as n "
                                   "from t where b = 3 and a < 6000")
        lines = list(out.columns["plan"])
        scan = next(line for line in lines if "MScan[t]" in line)
        rows = int(scan.split("rows=")[1].split()[0])
        filtered = int(scan.split("filtered=")[1].rstrip("]").split()[0])
        assert rows == (np.arange(6000) % 7 == 3).sum()
        counter = cluster.registry.get("scan_rows_filtered_total")
        assert counter.get(table="t") == filtered > 0
        hot = execute_sql(cluster, "select kernel from vh$hot_paths")
        assert "scan.filter" in set(hot.columns["kernel"])
        # un-predicated scans carry no filter annotation
        out = execute_sql(cluster, "explain analyze select count(*) as n "
                                   "from t")
        assert not any("filtered=" in line for line in out.columns["plan"])


class TestDeleteThroughFilteredScan:
    def test_delete_where_deletes_exactly_the_reference_rows(self):
        cluster = VectorHCluster(n_nodes=2,
                                 config=Config().scaled_for_tests())
        cluster.create_table(TableSchema(
            "t", [Column("a", INT64), Column("price", DECIMAL)],
            partition_key=("a",), n_partitions=3, clustered_on=("a",)))
        a = np.arange(9000)
        price = np.round((a % 97) / 4, 2)
        cluster.bulk_load("t", {"a": a, "price": price})
        doomed = (a >= 1000) & (a < 1300) & (price > 11.3)
        n = cluster.delete_where(
            "t", (Col("a") >= 1000) & (Col("a") < 1300)
            & (Col("price") > 11.3))
        assert n == doomed.sum() > 0
        left = execute_sql(cluster, "select a from t")
        assert sorted(left.columns["a"].tolist()) == a[~doomed].tolist()
        # and through SQL
        execute_sql(cluster, "delete from t where a < 50 and price <= 0.25")
        gone = (a < 50) & (price <= 0.25)
        left = execute_sql(cluster, "select count(*) as n from t")
        assert int(left.columns["n"][0]) == (~doomed & ~gone).sum()


class TestDmlFindsItsRowsLikeSelect:
    """SQL DELETE and UPDATE hand the scan the sargable triples of their
    WHERE, as SELECT does: same rows hit as with the triples withheld."""

    STATEMENTS = [
        # PDT-inserted rows, later targets of both statement kinds
        "insert into t values (20000, 1, 0.5), (20001, 2, 0.5), "
        "(20002, 3, 0.5)",
        # stable rows
        "update t set b = b + 1000 where a = 1234",
        "update t set price = 1.25 where a between 4000 and 4100 "
        "and price > 20.0",
        "delete from t where a >= 100 and a < 110",
        # PDT-inserted rows
        "update t set b = 7 where a >= 20001",
        "delete from t where a = 20000",
        # rows modified earlier in this transaction, found by the new value
        "update t set b = b + 1 where b >= 1000 and a < 5000",
        "update t set b = 0 where 7 = b",
        "delete from t where price = 1.25 and a <= 4050",
    ]

    @staticmethod
    def _cluster():
        cluster = VectorHCluster(n_nodes=2,
                                 config=Config().scaled_for_tests())
        cluster.create_table(TableSchema(
            "t", [Column("a", INT64), Column("b", INT64),
                  Column("price", DECIMAL)],
            partition_key=("a",), n_partitions=3, clustered_on=("a",)))
        a = np.arange(9000)
        cluster.bulk_load("t", {"a": a, "b": a % 7,
                                "price": np.round((a % 97) / 4, 2)})
        return cluster

    def _run(self, cluster):
        trans = cluster.begin()
        counts = [execute_sql(cluster, sql, trans=trans)
                  for sql in self.STATEMENTS]
        trans.commit()
        rows = execute_sql(cluster, "select a, b, price from t")
        order = np.argsort(rows.columns["a"])
        return counts, {k: v[order].tolist() for k, v in rows.columns.items()}

    def test_same_rows_with_and_without_the_triples(self, monkeypatch):
        from repro.cluster import vectorh
        with_triples = self._run(self._cluster())
        assert all(n > 0 for n in with_triples[0])
        monkeypatch.setattr(vectorh, "predicate_triples",
                            lambda predicate: [])
        assert self._run(self._cluster()) == with_triples

    def test_key_equality_update_skips_blocks(self):
        cluster = self._cluster()
        skipped = cluster.registry.get("minmax_blocks_skipped_total")
        before = skipped.get(table="t")
        assert execute_sql(
            cluster, "update t set b = 9 where a = 1234") == 1
        assert skipped.get(table="t") > before
