"""Update propagation: strings rewritten from their stored form, and the
non-tail entries deferred until they are due on their own (paper section
6) -- kept in the PDT, in the WAL and under MinMax across the tail flush.
A one-partition table checks the tail rule itself: what is appended,
what stays and when a flush rewrites.
"""

import numpy as np
import pytest

from repro.chaos.invariants import InvariantChecker
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.types import INT64, STRING
from repro.compression import general
from repro.compression.base import StringImage
from repro.engine.expressions import Col, Const
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.mpp.logical import LScan
from repro.sql import execute_sql
from repro.storage import Column, StoredTable, TableSchema

N_ROWS = 400
THRESHOLD = 8


def long_text(i: int) -> str:
    return f"{i:05d} a long and rarely repeated remark, number {i * 7919}"


def cluster() -> VectorHCluster:
    """Two partitions of ``t`` in blocks of 32 strings: ``tag`` is PDICT
    (but for a short last block, perhaps), ``note`` LZ or RAW throughout,
    and ``mixed`` PDICT in the first rows of each partition and LZ or RAW
    after them."""
    config = Config().scaled_for_tests()
    config.block_size = 512
    config.pdt_propagate_threshold = THRESHOLD
    c = VectorHCluster(n_nodes=4, config=config)
    c.create_table(TableSchema(
        "t", [Column("k", INT64), Column("v", INT64), Column("tag", STRING),
              Column("note", STRING), Column("mixed", STRING)],
        partition_key=("k",), n_partitions=2))
    k = np.arange(N_ROWS)
    c.bulk_load("t", {
        "k": k, "v": k * 3,
        "tag": np.array(["MAIL", "SHIP", "AIR"], object)[k % 3],
        "note": np.array([long_text(i) for i in k], object),
        "mixed": np.array(["AIR" if i < N_ROWS // 2 else long_text(i)
                           for i in k], object)})
    return c


def schemes(c, column):
    return {ref.scheme for store in c.tables["t"].partitions
            for ref in store.blocks[column]}


def image(c):
    """Every row of ``t``, as a sorted list of tuples."""
    res = c.query(LScan("t", ["k", "v", "tag", "note", "mixed"]))
    cols = res.batch.columns
    return sorted(zip(*(np.asarray(cols[n]).tolist()
                        for n in ("k", "v", "tag", "note", "mixed"))))


def insert_tail(c, keys):
    t = c.begin()
    keys = np.asarray(keys)
    c.insert("t", {"k": keys, "v": keys * 3,
                   "tag": np.array(["RAIL"] * len(keys), object),
                   "note": np.array([long_text(i) for i in keys], object),
                   "mixed": np.array(["TRUCK"] * len(keys), object)},
             trans=t, force_pdt=True)
    t.commit()


def defer(c):
    """One delete per partition (not due) and enough tail inserts to make
    each partition due: an un-forced propagation flushes the tail only."""
    c.delete_where("t", (Col("k") == 10) | (Col("k") == 11))
    insert_tail(c, range(1000, 1000 + 4 * THRESHOLD))
    stats = c.propagate_updates("t")
    assert stats == {"tail": 2, "full": 0}
    kept = [stack.total_entries() for stack in c.tables["t"].pdt]
    assert sum(kept) == 2 and 0 not in kept  # the deletes
    return kept


def test_load_mixes_schemes():
    c = cluster()
    assert "PDICT" in schemes(c, "tag")
    assert schemes(c, "note") <= {"LZ", "RAW"}
    assert "PDICT" in schemes(c, "mixed") and schemes(c, "mixed") - {"PDICT"}


def test_propagation_turns_no_row_into_a_str(monkeypatch):
    """Reads, merge, blocks and MinMax all work on codes and images."""
    c = cluster()
    c.delete_where("t", Col("k") < 20)
    c.update_where("t", Col("k") == 300, {"note": Const("changed"),
                                          "mixed": Const("AIR")})
    insert_tail(c, [1000, 1001])
    expected = image(c)

    def no_str(*args):
        raise AssertionError("a row became a Python str")

    with monkeypatch.context() as patch:
        patch.setattr(general, "_bytes_to_strings", no_str)
        patch.setattr(StringImage, "strings", no_str)
        stats = c.propagate_updates("t", force=True)
        insert_tail(c, [1002, 1003])  # and a tail flush, absorbing
        c.propagate_updates("t", force=True)  # the partial blocks
    assert stats["full"] == 2
    assert "PDICT" in schemes(c, "mixed") and schemes(c, "mixed") - {"PDICT"}
    extra = sorted(image(c)[-2:])
    assert image(c) == sorted(expected + extra)


def test_un_forced_propagation_keeps_the_non_tail_entries():
    c = cluster()
    before = image(c)
    defer(c)
    wal = c.wal
    for pid, stack in enumerate(c.tables["t"].pdt):
        commits = wal.partition_log("t", pid).commits
        # one commit record: exactly what the PDT kept
        assert len(commits) == 1
        assert len(commits[0]) == stack.total_entries()
    after = image(c)
    assert len(after) == len(before) - 2 + 4 * THRESHOLD
    # the kept deletes come due: the partition is rewritten
    c.delete_where("t", (Col("k") >= 20) & (Col("k") < 20 + 2 * THRESHOLD))
    stats = c.propagate_updates("t")
    assert stats["full"] == 2
    assert all(s.total_entries() == 0 for s in c.tables["t"].pdt)


def test_a_tail_flush_appends_the_tail_inserts_final_values():
    """A tail insert deleted since is not appended, a modified one is
    appended as modified; the delete of a stable row stays."""
    c = cluster()
    insert_tail(c, range(1000, 1000 + 4 * THRESHOLD))
    t = c.begin()
    c.delete_where("t", (Col("k") == 1000) | (Col("k") == 10), trans=t)
    c.update_where("t", Col("k") == 1001, {"note": Const("changed")},
                   trans=t)
    t.commit()
    expected = image(c)
    stats = c.propagate_updates("t")
    assert stats["full"] == 0
    stored = c.tables["t"]
    kept = [b for stack in stored.pdt for b in stack.scan_entries()]
    assert [(b.kind.value, (b.targets >= 0).tolist()) for b in kept] == [
        ("delete", [True])]
    stable = {k: note for store in stored.partitions
              for k, note in zip(store.read_column("k").tolist(),
                                 np.asarray(store.read_column("note")))}
    assert 1000 not in stable and stable[1001] == "changed"
    assert image(c) == expected


def test_invariants_hold_after_a_deferred_flush():
    c = cluster()
    defer(c)
    report = InvariantChecker(c).check("deferred flush")
    assert report.ok, report.violations


@pytest.mark.parametrize("pid", [0, 1])
def test_fail_node_rebuilds_the_kept_entries(pid):
    c = cluster()
    kept = defer(c)
    expected = image(c)
    c.fail_node(c.responsible("t", pid))
    assert [s.total_entries() for s in c.tables["t"].pdt] == kept
    assert image(c) == expected


def test_a_kept_modify_in_the_absorbed_partial_block_is_not_pruned():
    c = cluster()
    stored = c.tables["t"]
    store = stored.partitions[0]
    partial = store._partial_refs["v"]
    assert partial.row_start < store.n_stable
    # a row of the partial block of v gets a value no block holds
    key = int(store.read_column("k")[store.n_stable - 1])
    c.update_where("t", Col("k") == key, {"v": Const(10 ** 6)})
    insert_tail(c, range(1000, 1000 + 4 * THRESHOLD))
    assert c.propagate_updates("t")["full"] == 0
    assert stored.pdt[0].total_entries() == 1  # the modify, kept
    # the append rebuilt the partial block's range from its stored rows
    found = stored.scan_partition(0, ["k"], [("v", "=", 10 ** 6)])
    assert found.columns["k"].tolist() == [key]


@pytest.mark.parametrize("force", [True, False])
def test_fail_node_keeps_the_widening_of_commits_after_the_minmax_record(
        force):
    """A propagation logs the partition's MinMax; a later commit widens it
    in memory only. The node taking the partition over replays the WAL:
    it widens the logged MinMax again for every replayed entry, or a scan
    pruning on the new value skips the row."""
    c = cluster()
    if force:
        c.delete_where("t", (Col("k") == 10) | (Col("k") == 11))
        assert c.propagate_updates("t", force=True) == {"tail": 0, "full": 2}
    else:
        defer(c)
    assert any(r.kind == "minmax" for r in c.wal.replay_partition("t", 0))
    key = int(c.tables["t"].partitions[0].read_column("k")[0])
    execute_sql(c, f"UPDATE t SET v = 1000000 WHERE k = {key}")
    query = "SELECT k FROM t WHERE v = 1000000"
    assert execute_sql(c, query).columns["k"].tolist() == [key]
    c.fail_node(c.responsible("t", 0))
    assert execute_sql(c, query).columns["k"].tolist() == [key]
    assert InvariantChecker(c).check("failover").ok


def load_more(c, keys):
    keys = np.asarray(keys)
    n = len(keys)
    c.bulk_load("t", {"k": keys, "v": keys * 3,
                      "tag": np.array(["MAIL"] * n, object),
                      "note": np.array([long_text(i) for i in keys], object),
                      "mixed": np.array(["AIR"] * n, object)})


def test_a_bulk_load_keeps_the_widening_of_the_partial_block_it_absorbs():
    c = cluster()
    store = c.tables["t"].partitions[0]
    key = int(store.read_column("k")[store.n_stable - 1])
    execute_sql(c, f"UPDATE t SET v = 1000000 WHERE k = {key}")
    load_more(c, range(5000, 5010))
    found = execute_sql(c, "SELECT k FROM t WHERE v = 1000000")
    assert found.columns["k"].tolist() == [key]
    assert InvariantChecker(c).check("bulk load").ok


def test_fail_node_after_a_bulk_load_replays_a_minmax_with_its_blocks():
    """A propagation logged MinMax; the blocks a later bulk load adds are
    in the record the node taking over replays."""
    c = cluster()
    c.delete_where("t", (Col("k") == 10) | (Col("k") == 11))
    c.propagate_updates("t", force=True)
    load_more(c, range(5000, 5400))
    query = "SELECT count(*) AS n FROM t WHERE v >= 15000"
    assert execute_sql(c, query).columns["n"].tolist() == [400]
    c.fail_node(c.responsible("t", 0))
    assert execute_sql(c, query).columns["n"].tolist() == [400]


# ------------------------------------------- the tail rule, one partition

#: stable rows of the one-partition table: 3 entries are not due
N_SMALL = 1000


def small_table() -> StoredTable:
    """One unordered partition of ``N_SMALL`` rows, ``k`` = ``v`` = 0.."""
    config = Config().scaled_for_tests()
    config.pdt_propagate_threshold = THRESHOLD
    hdfs = HdfsCluster(["n1", "n2", "n3"], config, VectorHPlacementPolicy())
    table = StoredTable(hdfs, "/db", TableSchema(
        "t", [Column("k", INT64), Column("v", INT64)]), config)
    keys = np.arange(N_SMALL)
    table.bulk_load({"k": keys, "v": keys})
    return table


def commit(table, *writes):
    """Commit ``writes`` (each ``trans -> None``) as one transaction."""
    stack = table.pdt[0]
    trans = stack.begin()
    for write in writes:
        write(trans)
    stack.commit(trans)


def stored_rows(table):
    return list(zip(*(table.partitions[0].read_column(c).tolist()
                      for c in ("k", "v"))))


def test_an_untouched_tail_insert_is_appended_and_the_rest_kept():
    table = small_table()
    code = []
    commit(table,
           lambda t: t.insert([N_SMALL], {"k": [5000], "v": [1]}),
           lambda t: code.extend(t.insert([3], {"k": [6000], "v": [2]})),
           lambda t: t.delete([5]))
    assert table.propagate(0, force=False) == "tail"
    assert stored_rows(table)[N_SMALL:] == [(5000, 1)]
    kept = table.pdt[0].scan_entries()
    assert [(b.kind.value, b.targets.tolist()) for b in kept] == [
        ("insert", code), ("delete", [5])]


@pytest.mark.parametrize("force, mode", [(True, "full"), (False, "tail")])
def test_a_modified_tail_insert_is_rewritten_only_when_forced(force, mode):
    """A modify of a tail insert is no tail insert: a forced flush
    rewrites; an un-forced one, not due, appends the final values."""
    table = small_table()
    code = []
    commit(table, lambda t: code.extend(t.insert([N_SMALL], {"k": [5000],
                                                             "v": [1]})))
    commit(table, lambda t: t.modify(code, {"v": [9]}))
    assert table.propagate(0, force=force) == mode
    assert stored_rows(table)[N_SMALL:] == [(5000, 9)]
    assert table.pdt[0].total_entries() == 0


def test_the_tail_is_appended_in_commit_order():
    """The tail inserts' anchors are not in commit order; their rows are
    appended in ``seq`` order."""
    table = small_table()
    commit(table, lambda t: t.insert([N_SMALL + 2], {"k": [5001], "v": [0]}))
    commit(table, lambda t: t.insert([N_SMALL], {"k": [5002], "v": [0]}))
    commit(table, lambda t: t.insert([N_SMALL + 1], {"k": [5003], "v": [0]}))
    assert table.propagate(0, force=True) == "tail"
    assert [k for k, _ in stored_rows(table)[N_SMALL:]] == [5001, 5002, 5003]


def _committed_delete_then_open_txn():
    """``t(k, v)`` on 4 partitions, 100 rows, ``k < 20`` deleted and
    committed (PDT entries a forced propagation folds into the image),
    and a transaction begun after that."""
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("k", INT64), Column("v", INT64)],
        partition_key=("k",), n_partitions=4))
    c.bulk_load("t", {"k": np.arange(100), "v": np.arange(100) * 10})
    execute_sql(c, "DELETE FROM t WHERE k < 20")
    return c, c.begin()


def _keys(c, trans=None):
    return sorted(execute_sql(c, "SELECT k FROM t", trans=trans)
                  .columns["k"].tolist())


def test_propagation_leaves_an_open_transactions_snapshot_alone():
    c, trans = _committed_delete_then_open_txn()
    assert _keys(c, trans) == list(range(20, 100))
    c.propagate_updates(force=True)
    # its snapshot layers delete by position: on a rewritten image they
    # would delete rows 20..39
    assert _keys(c, trans) == list(range(20, 100))
    trans.commit()
    c.propagate_updates(force=True)
    assert not any(stack.total_entries() for stack in c.tables["t"].pdt)
    assert _keys(c) == list(range(20, 100))


def test_an_open_transactions_delete_commits_the_row_it_named():
    c, trans = _committed_delete_then_open_txn()
    assert execute_sql(c, "DELETE FROM t WHERE k = 60", trans=trans) == 1
    c.propagate_updates(force=True)
    trans.commit()
    assert _keys(c) == [k for k in range(20, 100) if k != 60]
