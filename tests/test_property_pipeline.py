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
from repro.engine.expressions import Between, Col, InList
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.mpp.logical import LAggr, LJoin, LScan, LSelect, LTopN
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
        table.insert_rows(0, _new_rows(rng, n_ins, n), trans)
    image = table.scan_merged(0, ["k"], trans=trans)
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
    full = table.scan_merged(0, _SCAN_COLUMNS, trans=trans)
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
