"""Property tests over the full pipeline.

The strongest invariant this library offers: for any data and any logical
plan, the vectorized MPP engine (VectorH path, with compression, MinMax
skipping, PDT merging, exchanges) and the tuple-at-a-time row engine
(baseline path, over PAX row groups) must return the same multiset of
rows. hypothesis drives both over random datasets and plan shapes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st,
)

from tests.conftest import assert_batches_match

from repro.baselines import CompetitorSystem
from repro.common.config import Config
from repro.common.types import DATE, DECIMAL, INT64, STRING
from repro.cluster import VectorHCluster
from repro.storage.minmax import OPS
from repro.engine.expressions import (
    Between, Case, Col, InList, Like, Substr,
)
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.mpp import plan as P
from repro.mpp.logical import LAggr, LJoin, LProject, LScan, LSelect, LTopN
from repro.storage import Column, StoredTable, TableSchema


def build_systems(fact_rows, dim_rows):
    cluster = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    cluster.create_table(TableSchema(
        "fact", [Column("fk", INT64), Column("dk", INT64),
                 Column("v", INT64), Column("tag", STRING)],
        partition_key=("fk",), n_partitions=4))
    cluster.create_table(TableSchema(
        "dim", [Column("dim_k", INT64), Column("label", STRING)]))
    data = {
        "fact": {
            "fk": np.asarray([r[0] for r in fact_rows], np.int64),
            "dk": np.asarray([r[1] for r in fact_rows], np.int64),
            "v": np.asarray([r[2] for r in fact_rows], np.int64),
            "tag": _obj([("t%d" % (r[2] % 3)) for r in fact_rows]),
        },
        "dim": {
            "dim_k": np.asarray([r[0] for r in dim_rows], np.int64),
            "label": _obj([r[1] for r in dim_rows]),
        },
    }
    for name in ("fact", "dim"):
        cluster.bulk_load(name, data[name])
    hive = CompetitorSystem("hive", workers=3, rows_per_group=16)
    hive.load(data)
    return cluster, hive


def _obj(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


fact_rows_st = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 6),
              st.integers(-50, 50)),
    min_size=1, max_size=60,
)
dim_rows_st = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(["a", "b", "c"])),
    min_size=0, max_size=7, unique_by=lambda r: r[0],
)


@st.composite
def plan_spec(draw):
    """A random plan over fact (optionally joined with dim)."""
    shape = draw(st.sampled_from(
        ["scan", "select", "join", "aggr", "join_aggr", "topn"]))
    lit = draw(st.integers(-50, 50))
    how = draw(st.sampled_from(["inner", "semi", "anti"]))
    n = draw(st.integers(1, 10))
    return shape, lit, how, n


def build_plan(spec):
    shape, lit, how, n = spec
    scan = LScan("fact", ["fk", "dk", "v", "tag"])
    if shape == "scan":
        return scan
    if shape == "select":
        return LSelect(scan, (Col("v") >= lit) | InList(Col("dk"), [0, 3]))
    join = LJoin(build=LScan("dim", ["dim_k", "label"]), probe=scan,
                 build_keys=["dim_k"], probe_keys=["dk"], how=how,
                 build_payload=(["label"] if how == "inner" else None))
    if shape == "join":
        return join
    if shape == "aggr":
        return LAggr(LSelect(scan, Between(Col("v"), -25, lit)),
                     ["dk"], [("n", "count", None), ("s", "sum", Col("v")),
                              ("hi", "max", Col("v"))])
    if shape == "join_aggr":
        key = "label" if how == "inner" else "dk"
        return LAggr(join, [key], [("n", "count", None)])
    return LTopN(LSelect(scan, Col("v") <= lit), ["v", "fk"], n,
                 ascending=[False, True])


@given(fact_rows_st, dim_rows_st, plan_spec())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree_on_random_plans(fact_rows, dim_rows, spec):
    cluster, hive = build_systems(fact_rows, dim_rows)
    plan_a = build_plan(spec)
    plan_b = build_plan(spec)  # logical nodes are single-use per engine
    vh = cluster.query(plan_a).batch
    base = hive.run(plan_b)
    if spec[0] == "topn":
        # top-n with duplicate sort keys is non-deterministic at the tie
        # boundary: compare counts and the sort-key multiset instead
        assert vh.n == base.n
        if vh.n:
            assert sorted(vh.columns["v"]) == sorted(base.columns["v"])
    else:
        assert_batches_match(vh, base)


@given(fact_rows_st,
       st.lists(st.integers(0, 40), min_size=0, max_size=10))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree_after_updates(fact_rows, delete_keys):
    """Deletes through PDTs (VectorH) and delta stores (Hive) must leave
    both engines with identical images."""
    cluster, hive = build_systems(fact_rows, [(0, "a")])
    cluster.delete_where("fact", InList(Col("fk"), list(delete_keys)))
    doomed = set(delete_keys)
    survivors = [r for r in fact_rows if r[0] not in doomed]
    from repro.baselines.rowengine import DeltaStore
    # keying the delta on fk alone deletes every matching row, like the
    # InList delete on the VectorH side
    hive.runner.deltas["fact"] = DeltaStore(("fk",))
    hive.runner.delta_delete("fact", [(int(k),) for k in delete_keys])
    plan_a = LAggr(LScan("fact", ["v"]), [], [("n", "count", None),
                                              ("s", "sum", Col("v"))])
    plan_b = LAggr(LScan("fact", ["v"]), [], [("n", "count", None),
                                              ("s", "sum", Col("v"))])
    vh = cluster.query(plan_a).batch
    base = hive.run(plan_b)
    assert int(vh.columns["n"][0]) == int(base.columns["n"][0])
    assert int(vh.columns["n"][0]) == len(survivors)
    assert vh.columns["s"][0] == pytest.approx(base.columns["s"][0])


# ---------------------------------------------------------------------------
# scan_partition applies its predicate triples exactly
# ---------------------------------------------------------------------------
#
# For any table (clustered or not), any PDT content (committed or inside
# an open transaction) and any conjunction of sargable triples, the
# filtered scan returns exactly the rows of the unfiltered merged image
# that a numpy filter over the engine's representation keeps -- same
# values, same identities, same order.

_SCAN_COLUMNS = ["k", "d", "price", "s"]
_WORDS = ["AIR", "MAIL", "RAIL", "SHIP"]


def _scan_table(clustered, n, seed):
    config = dataclasses.replace(Config().scaled_for_tests(), block_size=1024)
    hdfs = HdfsCluster(["n1", "n2", "n3"], config, VectorHPlacementPolicy())
    table = StoredTable(hdfs, "/db", TableSchema(
        "t", [Column("k", INT64), Column("d", DATE), Column("price", DECIMAL),
              Column("s", STRING)],
        clustered_on=("k",) if clustered else ()), config)
    rng = np.random.default_rng(seed)
    table.bulk_load({
        "k": rng.permutation(n).astype(np.int64) * 3,
        # runs of equal dates: whole block-ranges without a survivor
        "d": (8000 + np.arange(n) // 150 * 10
              + rng.integers(0, 3, n)).astype(np.int32),
        "price": rng.integers(0, 2000, n) / 100,
        "s": _obj(rng.choice(_WORDS, n)),
    })
    return table


def _new_rows(rng, count, n):
    return {
        "k": rng.integers(0, 3 * n, count).astype(np.int64) * 3 + 1,
        "d": rng.integers(7990, 8100, count).astype(np.int32),
        "price": rng.integers(0, 2500, count) / 100,
        "s": _obj(rng.choice(_WORDS + ["new"], count)),
    }


def _apply_updates(table, trans, rng, n, n_ins, n_mod, n_del):
    if n_ins:
        table.insert_rows(_new_rows(rng, n_ins, n), lambda _: trans)
    image = table.scan_partition(0, ["k"], trans=trans)
    if n_mod and image.n_rows:
        hit = rng.choice(image.n_rows, min(n_mod, image.n_rows),
                         replace=False)
        fresh = _new_rows(rng, len(hit), n)
        table.modify_rows(0, image.identities[hit],
                          {c: fresh[c] for c in ("d", "price", "s")}, trans)
    if n_del and image.n_rows:
        hit = rng.choice(image.n_rows, min(n_del, image.n_rows),
                         replace=False)
        table.delete_rows(0, image.identities[hit], trans)


_literals = {
    "k": st.integers(-5, 2200),
    "d": st.integers(7985, 8105),
    "price": st.one_of(
        st.integers(-1, 26),
        st.integers(-100, 26000).map(lambda v: v / 1000),  # off-scale
        st.integers(0, 2600).map(lambda v: v / 100)),
    "s": st.sampled_from(_WORDS + ["new", "B", ""]),
}
triples_st = st.lists(
    st.sampled_from(_SCAN_COLUMNS).flatmap(
        lambda c: st.tuples(st.just(c), st.sampled_from(sorted(OPS)),
                            _literals[c])),
    min_size=1, max_size=3)
updates_st = st.tuples(st.integers(0, 5), st.integers(0, 5),
                       st.integers(0, 5))


def _assert_filtered_scan_is_reference(table, requested, triples, trans):
    full = table.scan_partition(0, _SCAN_COLUMNS, trans=trans)
    keep = np.ones(full.n_rows, dtype=bool)
    for col, op, literal in triples:
        # the one triple storage cannot answer is skipped as a filter
        # (looser than SQL, never stricter): equality with a DECIMAL
        # literal the column's scale cannot hold, which matches no row
        term = OPS[op](full.columns[col], literal)
        if (col, op) == ("price", "=") and round(literal * 1000) % 10:
            assert not term.any()
        else:
            keep &= term
    got = table.scan_partition(0, requested, triples, trans=trans)
    assert sorted(got.columns) == sorted(set(requested))
    assert got.n_rows == keep.sum() == len(got.identities)
    assert np.array_equal(got.identities, full.identities[keep])
    for col in requested:
        assert got.columns[col].dtype == full.columns[col].dtype
        assert np.array_equal(got.columns[col], full.columns[col][keep])


@given(st.booleans(), st.integers(1, 700), st.integers(0, 2**31),
       updates_st, updates_st, triples_st,
       st.lists(st.sampled_from(_SCAN_COLUMNS), min_size=1, max_size=4,
                unique=True))
@example(clustered=True, n=416, seed=1, committed=(4, 1, 1),
         pending=(5, 5, 0), triples=[("d", "=", 8095)], requested=["k"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_filtered_scan_equals_numpy_filter(clustered, n, seed, committed,
                                           pending, triples, requested):
    table = _scan_table(clustered, n, seed)
    rng = np.random.default_rng(seed + 1)
    # empty PDT
    _assert_filtered_scan_is_reference(table, requested, triples, None)
    # committed inserts / modifies / deletes
    trans = table.pdt[0].begin()
    _apply_updates(table, trans, rng, n, *committed)
    table.pdt[0].commit(trans)
    _assert_filtered_scan_is_reference(table, requested, triples, None)
    # the same inside an open transaction; other readers do not see it
    trans = table.pdt[0].begin()
    _apply_updates(table, trans, rng, n, *pending)
    _assert_filtered_scan_is_reference(table, requested, triples, trans)
    _assert_filtered_scan_is_reference(table, requested, triples, None)


# ---------------------------------------------------------------------------
# strings: dictionary-coded (PDICT) and plain (LZ/RAW) columns through
# predicates, group-by, a hash split and a join
# ---------------------------------------------------------------------------
#
# ``tag`` is low-cardinality and every drawn row is stored 16 times, so its
# blocks are PDICT and it travels as codes; ``note`` is unique per stored
# row, so its blocks are LZ or RAW and it travels as a plain object array.
# The same predicates run on both, against the row engine's ``eval_row``.

_TILE = 16
_TAGS = ["t0", "t1", "t2", "", "é"]

string_rows_st = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-5, 5),
              st.sampled_from(_TAGS)),
    min_size=1, max_size=20)
side_rows_st = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(["t1", "t2", "t7", ""])),
    min_size=1, max_size=6)


def build_string_systems(rows, side_rows=((0, "t1"),)):
    cluster = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    cluster.create_table(TableSchema(
        "fact", [Column("fk", INT64), Column("v", INT64),
                 Column("tag", STRING), Column("note", STRING)],
        partition_key=("fk",), n_partitions=4))
    cluster.create_table(TableSchema(
        "side", [Column("sk", INT64), Column("tag2", STRING)],
        partition_key=("sk",), n_partitions=4))
    stored = [r for r in rows for _ in range(_TILE)]
    side = [r for r in side_rows for _ in range(_TILE)]
    data = {
        "fact": {
            "fk": np.asarray([r[0] for r in stored], np.int64),
            "v": np.asarray([r[1] for r in stored], np.int64),
            "tag": _obj([r[2] for r in stored]),
            "note": _obj(["n%d-%d-%d" % (r[0], r[1], i)
                          for i, r in enumerate(stored)]),
        },
        "side": {
            "sk": np.asarray([r[0] for r in side], np.int64),
            "tag2": _obj([r[1] for r in side]),
        },
    }
    for name in data:
        cluster.bulk_load(name, data[name])
    for part in cluster.tables["fact"].partitions:
        assert {ref.scheme for ref in part.blocks["tag"]} <= {"PDICT"}
        assert "PDICT" not in {ref.scheme for ref in part.blocks["note"]}
    hive = CompetitorSystem("hive", workers=3, rows_per_group=16)
    hive.load(data)
    return cluster, hive


def string_predicate(which, col, lit):
    c = Col(col)
    return [
        lambda: c == lit,
        lambda: c != lit,
        lambda: c < lit,
        lambda: Between(c, lit, lit + "~"),
        lambda: InList(c, [lit, "t0", "n1-1-1"]),
        lambda: ~InList(c, [lit, "t0"]),
        lambda: Like(c, lit[:2] + "%"),
        lambda: Like(c, "%" + lit[-1:], negate=True),
        lambda: Col("tag") < Col("note"),          # two dictionaries/kinds
        lambda: c == Col("tag"),                   # ... or the same one
        lambda: Substr(c, 1, 2) == lit[:2],
        lambda: InList(Substr(c, 2, 1), ["1", "2", lit[1:2]]),
        lambda: Case(c == lit, Col("v"), 0) > 0,
        lambda: Case(Like(c, "t%"), c, "other") == lit,
    ][which]()


N_STRING_PREDICATES = 14
string_literals = st.sampled_from(_TAGS + ["t", "t9", "n1", "n10-0-3", "n2-"])


@given(string_rows_st, st.integers(0, N_STRING_PREDICATES - 1),
       st.sampled_from(["tag", "note"]), string_literals)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree_on_string_predicates(rows, which, col, lit):
    cluster, hive = build_string_systems(rows)
    scan = ["fk", "v", "tag", "note"]
    vh = cluster.query(LSelect(
        LScan("fact", scan), string_predicate(which, col, lit))).batch
    base = hive.run(LSelect(
        LScan("fact", scan), string_predicate(which, col, lit)))
    assert_batches_match(vh, base)
    assert all(isinstance(v, np.ndarray) for v in vh.columns.values())


@given(string_rows_st, st.sampled_from(["tag", "note"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree_on_string_group_by_through_a_hash_split(rows, col):
    """Partial aggregate -> DXHashSplit on string keys (every sender its
    own dictionaries) -> final; keys a coded column, a SUBSTRING of a
    coded or plain one, and min / max / count distinct over strings."""
    cluster, hive = build_string_systems(rows)

    def plan():
        cut = LProject(LScan("fact", ["v", "tag", "note"]), {
            "tag": Col("tag"), "p": Substr(Col(col), 1, 3), "v": Col("v"),
            "note": Col("note")})
        return LAggr(cut, ["tag", "p"], [
            ("n", "count", None), ("s", "sum", Col("v")),
            ("lo", "min", Col("tag")), ("hi", "max", Col("note")),
            ("d", "count_distinct", Col("tag"))])
    result = cluster.query(plan())
    assert any(isinstance(node, P.DXHashSplit) and "tag" in node.keys
               for node in result.qplan.root.walk())
    assert_batches_match(result.batch, hive.run(plan()))
    assert result.batch.columns["n"].dtype == np.int64


@given(string_rows_st, side_rows_st,
       st.sampled_from(["inner", "semi", "anti"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree_on_a_join_on_a_string_key(rows, side_rows, how):
    """Neither table is partitioned on the key and the build side is the
    larger, so both sides are hash split on a string column -- and meet
    carrying different dictionaries (``tag2`` holds values ``tag`` never
    has, and the other way round)."""
    cluster, hive = build_string_systems(rows, side_rows)

    def plan():
        join = LJoin(build=LScan("fact", ["tag", "v"]),
                     probe=LScan("side", ["sk", "tag2"]),
                     build_keys=["tag"], probe_keys=["tag2"], how=how,
                     build_payload=(["v"] if how == "inner" else None))
        aggs = [("n", "count", None)]
        if how == "inner":
            aggs.append(("s", "sum", Col("v")))
        return LAggr(join, ["tag2"], aggs)
    result = cluster.query(plan())
    if len(rows) > len(side_rows):
        splits = [node for node in result.qplan.root.walk()
                  if isinstance(node, P.DXHashSplit)]
        assert {"tag", "tag2"} <= {k for s in splits for k in s.keys}
    assert_batches_match(result.batch, hive.run(plan()))
