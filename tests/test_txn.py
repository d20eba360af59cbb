"""Tests for distributed transactions: 2PC, WAL, log shipping, constraints."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import (
    ConstraintViolation, SimulatedCrash, TransactionAborted,
)
from repro.common.types import INT64, STRING
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col, Const
from repro.mpp.logical import LAggr, LScan
from repro.sql import execute_sql
from repro.storage import Column, TableSchema
from repro.txn.wal import WalRecord


@pytest.fixture()
def cluster():
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("k", INT64), Column("v", INT64)],
        primary_key=("k",), partition_key=("k",), n_partitions=4))
    c.create_table(TableSchema(
        "small", [Column("sk", INT64), Column("name", STRING)],
        primary_key=("sk",)))
    c.bulk_load("t", {"k": np.arange(100), "v": np.zeros(100, np.int64)})
    c.bulk_load("small", {"sk": np.arange(10),
                          "name": np.array([f"s{i}" for i in range(10)],
                                           object)})
    return c


def count_rows(cluster, table, col):
    res = cluster.query(LAggr(LScan(table, [col]), [],
                              [("n", "count", None)]))
    return int(res.batch.columns["n"][0])


class TestCommitAbort:
    def test_commit_makes_changes_visible(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([1000]), "v": np.array([1])},
                       trans=t)
        t.commit()
        assert count_rows(cluster, "t", "k") == 101

    def test_uncommitted_invisible(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([1000]), "v": np.array([1])},
                       trans=t)
        assert count_rows(cluster, "t", "k") == 100

    def test_own_changes_visible_inside_txn(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([1000]), "v": np.array([1])},
                       trans=t)
        res = cluster.query(LAggr(LScan("t", ["k"]), [],
                                  [("n", "count", None)]), trans=t)
        assert res.batch.columns["n"][0] == 101

    def test_abort_discards(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([1000]), "v": np.array([1])},
                       trans=t)
        t.abort()
        assert count_rows(cluster, "t", "k") == 100

    def test_double_commit_rejected(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([1000]), "v": np.array([1])},
                       trans=t)
        t.commit()
        with pytest.raises(TransactionAborted):
            t.commit()

    def test_read_only_commit_is_noop(self, cluster):
        t = cluster.begin()
        t.commit()
        assert cluster.txn.commits == 0


class TestConflicts:
    def test_write_write_conflict_across_transactions(self, cluster):
        a, b = cluster.begin(), cluster.begin()
        cluster.update_where("t", Col("k") == 5, {"v": Col("v") + 1},
                             trans=a)
        cluster.update_where("t", Col("k") == 5, {"v": Col("v") + 2},
                             trans=b)
        a.commit()
        with pytest.raises(TransactionAborted):
            b.commit()
        assert cluster.txn.aborts == 1

    def test_disjoint_updates_commit(self, cluster):
        a, b = cluster.begin(), cluster.begin()
        cluster.update_where("t", Col("k") == 5, {"v": Col("v") + 1},
                             trans=a)
        cluster.update_where("t", Col("k") == 6, {"v": Col("v") + 2},
                             trans=b)
        a.commit()
        b.commit()

    def test_unique_key_violation(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([7]), "v": np.array([0])},
                       trans=t, force_pdt=True)
        with pytest.raises(ConstraintViolation):
            t.commit()

    def test_duplicate_inside_one_transaction(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([500, 500]),
                             "v": np.array([0, 1])}, trans=t, force_pdt=True)
        with pytest.raises(ConstraintViolation):
            t.commit()
        assert count_rows(cluster, "t", "k") == 100

    def test_duplicate_of_an_unpropagated_insert(self, cluster):
        first = cluster.begin()
        cluster.insert("t", {"k": np.array([500]), "v": np.array([0])},
                       trans=first, force_pdt=True)
        first.commit()
        second = cluster.begin()
        cluster.insert("t", {"k": np.array([500]), "v": np.array([1])},
                       trans=second, force_pdt=True)
        with pytest.raises(ConstraintViolation):
            second.commit()
        assert count_rows(cluster, "t", "k") == 101

    def test_composite_key(self):
        cluster = VectorHCluster(n_nodes=3,
                                 config=Config().scaled_for_tests())
        cluster.create_table(TableSchema(
            "partsupp", [Column("pk", INT64), Column("sk", INT64),
                         Column("qty", INT64)],
            primary_key=("pk", "sk"), partition_key=("pk",),
            n_partitions=2))
        cluster.bulk_load("partsupp", {"pk": np.repeat(np.arange(10), 4),
                                       "sk": np.tile(np.arange(4), 10),
                                       "qty": np.zeros(40, np.int64)})
        fine = cluster.begin()  # a new supplier of part 3
        cluster.insert("partsupp", {"pk": np.array([3]), "sk": np.array([4]),
                                    "qty": np.array([1])},
                       trans=fine, force_pdt=True)
        fine.commit()
        clash = cluster.begin()  # part 3's supplier 2 again
        cluster.insert("partsupp", {"pk": np.array([3]), "sk": np.array([2]),
                                    "qty": np.array([1])},
                       trans=clash, force_pdt=True)
        with pytest.raises(ConstraintViolation):
            clash.commit()
        assert count_rows(cluster, "partsupp", "pk") == 41

    def test_delete_and_reinsert_one_key(self, cluster):
        t = cluster.begin()
        cluster.delete_where("t", Col("k") == 7, trans=t)
        cluster.insert("t", {"k": np.array([7]), "v": np.array([9])},
                       trans=t, force_pdt=True)
        t.commit()
        assert count_rows(cluster, "t", "k") == 100


class TestWal:
    def test_commit_logged_per_partition(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.arange(200, 210),
                             "v": np.zeros(10, np.int64)}, trans=t)
        t.commit()
        logged = 0
        for pid in range(4):
            log = cluster.wal.partition_log("t", pid)
            logged += sum(len(batch) for batches in log.commits
                          for batch in batches)
        assert logged == 10

    def test_global_wal_records_decision(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([999]), "v": np.array([0])},
                       trans=t)
        t.commit()
        decisions = [r for r in cluster.wal.replay_global()
                     if r.kind == "decision"]
        assert decisions
        txn_id, outcome, participants = decisions[-1].payload
        assert outcome == "commit"
        assert participants

    def test_wal_record_roundtrip(self):
        rec = WalRecord("prepare", (1, ["x", "y"]))
        frames = list(WalRecord.stream_from(rec.to_bytes() + rec.to_bytes()))
        assert len(frames) == 2
        assert frames[0].payload == (1, ["x", "y"])

    def test_partition_log_reads_commits_minmax_and_in_doubt(self, cluster):
        """One read of a partition WAL: the prepared entries every commit
        record names, in commit order, the last MinMax record, and the
        prepares no commit or abort record of the same txn follows."""
        wal = cluster.wal
        wal.create_partition_wal("w", 0)
        wal.log_prepare("w", 0, 7, ["e7"])
        wal.log_commit("w", 0, 7)
        wal.log_minmax("w", 0, {"first": 1})
        wal.log_prepare("w", 0, 8, ["e8"])
        wal.log_abort("w", 0, 8)
        wal.log_prepare("w", 0, 9, ["e9", "f9"])
        wal.log_prepare("w", 0, 0, ["kept"])  # what a propagation left
        wal.log_commit("w", 0, 0)
        wal.log_minmax("w", 0, {"last": 2})
        wal.log_prepare("w", 0, 10, ["e10"])
        wal.log_commit("w", 0, 10)
        log = wal.partition_log("w", 0)
        assert log.commits == [["e7"], ["kept"], ["e10"]]
        assert log.minmax == {"last": 2}
        assert log.in_doubt == {9: ["e9", "f9"]}
        empty = wal.partition_log("w", 1)  # no WAL file at all
        assert (empty.commits, empty.minmax, empty.in_doubt) == ([], None, {})

    def test_wal_reset_after_propagation(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([500]), "v": np.array([0])},
                       trans=t)
        t.commit()
        cluster.propagate_updates("t", force=True)
        for pid in range(4):
            commits = [r for r in cluster.wal.replay_partition("t", pid)
                       if r.kind == "commit"]
            assert not commits

    def test_minmax_snapshot_logged_on_propagation(self, cluster):
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([500]), "v": np.array([0])},
                       trans=t)
        t.commit()
        cluster.propagate_updates("t", force=True)
        kinds = set()
        for pid in range(4):
            kinds |= {r.kind for r in cluster.wal.replay_partition("t", pid)}
        assert "minmax" in kinds


class TestCommitRecord:
    """A txn's redo is written once, in its prepare record; the commit
    record only names the txn."""

    @staticmethod
    def _commit_record_bytes(cluster, n_rows):
        registry = cluster.registry
        count0 = registry.value("wal_appends_total", kind="commit")
        bytes0 = registry.value("wal_appended_bytes_total", kind="commit")
        t = cluster.begin()
        cluster.insert("t", {"k": np.arange(10**5, 10**5 + n_rows),
                             "v": np.arange(n_rows)},
                       trans=t, force_pdt=True)
        t.commit()
        count = registry.value("wal_appends_total", kind="commit") - count0
        assert count > 0
        return (registry.value("wal_appended_bytes_total", kind="commit")
                - bytes0) / count

    @pytest.mark.parametrize("n_rows", [4, 400])
    def test_a_commit_record_is_small_whatever_the_redo(self, cluster,
                                                         n_rows):
        assert self._commit_record_bytes(cluster, n_rows) <= 64

    @staticmethod
    def _prepare_records(cluster, write):
        """The prepare records of the txn ``write(cluster, trans)`` fills:
        how many, and their bytes."""
        registry = cluster.registry
        count0 = registry.value("wal_appends_total", kind="prepare")
        bytes0 = registry.value("wal_appended_bytes_total", kind="prepare")
        t = cluster.begin()
        write(cluster, t)
        t.commit()
        return (registry.value("wal_appends_total", kind="prepare") - count0,
                registry.value("wal_appended_bytes_total", kind="prepare")
                - bytes0)

    def test_a_prepare_record_holds_a_batch_in_few_bytes_a_row(self,
                                                                cluster):
        count, size = self._prepare_records(
            cluster, lambda c, t: c.insert(
                "t", {"k": np.arange(10**5, 10**5 + 400),
                      "v": np.arange(400)}, trans=t, force_pdt=True))
        assert count == 4
        assert size / 400 <= 40

    @pytest.mark.parametrize("write, most", [
        (lambda c, t: c.insert("t", {"k": np.array([10**5]),
                                     "v": np.array([1])},
                               trans=t, force_pdt=True), 185),
        (lambda c, t: c.update_where("t", Col("k") == 7, {"v": Const(3)},
                                     trans=t), 172),
        (lambda c, t: c.delete_where("t", Col("k") == 7, trans=t), 165),
    ], ids=["insert", "update", "delete"])
    def test_a_one_row_prepare_record_is_small(self, cluster, write, most):
        count, size = self._prepare_records(cluster, write)
        assert count == 1
        assert size <= most


def _scans(cluster, table):
    """Every partition of ``table`` as a scan sees it: values and codes."""
    stored = cluster.tables[table]
    names = stored.schema.column_names
    out = []
    for pid in range(stored.n_partitions):
        res = stored.scan_partition(pid, names)
        out.append(({c: list(res.columns[c]) for c in names},
                    res.identities.tolist()))
    return out


class TestCrashThenFailover:
    """A commit cut at each 2PC crash point and settled by presumed-abort
    recovery; then the responsible node of a touched partition fails, and
    the node taking it over rebuilds the PDT from the WAL alone: the
    partition scans, codes included, as it did before."""

    @staticmethod
    def _crash(cluster, point):
        def hook(at, _txn):
            if at == point:
                raise SimulatedCrash(cluster.session_master, at)

        cluster.txn.crash_hook = hook
        t = cluster.begin()
        cluster.insert("t", {"k": np.arange(200, 216),
                             "v": np.ones(16, np.int64)}, trans=t)
        cluster.delete_where("t", Col("k") < 8, trans=t)
        cluster.update_where("t", Col("k") >= 90, {"v": Col("v") + 7},
                             trans=t)
        cluster.insert("small", {"sk": np.array([100, 101]),
                                 "name": np.array(["x", "y"], object)},
                       trans=t, force_pdt=True)
        cluster.delete_where("small", Col("sk") == 1, trans=t)
        cluster.update_where("small", Col("sk") == 2,
                             {"name": Const("renamed")}, trans=t)
        assert sum(1 for trans in t.parts.values() if len(trans)) == 5
        with pytest.raises(SimulatedCrash):
            t.commit()
        cluster.txn.crash_hook = None
        return cluster.txn.resolve_in_doubt()

    @pytest.mark.parametrize("table", ["t", "small"])
    @pytest.mark.parametrize("point", ["prepare.done", "decision.logged",
                                       "commit.partial"])
    def test_the_rebuilt_pdt_scans_as_before(self, cluster, point, table):
        resolved = self._crash(cluster, point)
        committed = point != "prepare.done"
        assert bool(resolved["committed"]) == committed
        stored = cluster.tables[table]
        assert bool(stored.pdt[0].total_entries()) == committed
        before = _scans(cluster, table)
        old = stored.pdt[0]
        cluster.fail_node(cluster.responsible(table, 0))
        assert stored.pdt[0] is not old  # rebuilt from the WAL
        assert _scans(cluster, table) == before
        assert cluster.txn.resolve_in_doubt() == {"committed": [],
                                                  "aborted": []}


class TestLogShipping:
    def test_replicated_table_update_ships_log(self, cluster):
        before = cluster.txn.log_shipped_bytes
        t = cluster.begin()
        cluster.insert("small", {"sk": np.array([100]),
                                 "name": np.array(["new"], object)},
                       trans=t, force_pdt=True)
        t.commit()
        # shipped to the other (N-1) = 2 workers
        assert cluster.txn.log_shipped_bytes > before

    def test_partitioned_table_update_does_not_ship(self, cluster):
        before = cluster.txn.log_shipped_bytes
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([600]), "v": np.array([0])},
                       trans=t)
        t.commit()
        assert cluster.txn.log_shipped_bytes == before

    def test_two_pc_messages_counted(self, cluster):
        mpi0 = cluster.mpi.total_messages
        t = cluster.begin()
        cluster.insert("t", {"k": np.array([601]), "v": np.array([0])},
                       trans=t)
        t.commit()
        assert cluster.mpi.total_messages > mpi0


class TestDml:
    def test_delete_where(self, cluster):
        deleted = cluster.delete_where("t", Col("k") < 10)
        assert deleted == 10
        assert count_rows(cluster, "t", "k") == 90

    def test_update_where(self, cluster):
        hit = cluster.update_where("t", Col("k") < 5, {"v": Col("v") + 7})
        assert hit == 5
        res = cluster.query(LAggr(LScan("t", ["v"]), [],
                                  [("s", "sum", Col("v"))]))
        assert res.batch.columns["s"][0] == 35

    def test_large_insert_appends_directly(self, cluster):
        n = 10000  # over DIRECT_APPEND_THRESHOLD
        cluster.insert("t", {"k": np.arange(10**6, 10**6 + n),
                             "v": np.zeros(n, np.int64)})
        assert count_rows(cluster, "t", "k") == 100 + n
        assert all(s.total_entries() == 0 for s in cluster.tables["t"].pdt)

    def test_small_insert_goes_to_pdt(self, cluster):
        cluster.insert("t", {"k": np.array([2000]), "v": np.array([0])})
        assert any(s.total_entries() for s in cluster.tables["t"].pdt)


class TestConstantWhere:
    """A predicate that reads no column is one bool for every row of a
    piece: DML with it changes every row or none, PDT inserts too."""

    @pytest.fixture()
    def with_inserts(self, cluster):
        cluster.insert("t", {"k": np.arange(200, 206),
                             "v": np.full(6, 3, np.int64)})
        assert sum(s.total_entries() for s in cluster.tables["t"].pdt) == 6
        return cluster

    def _rows(self, cluster):
        return execute_sql(cluster, "SELECT count(*) AS n, sum(v) AS s "
                                    "FROM t").columns

    def test_delete_where_true_deletes_every_row(self, with_inserts):
        assert execute_sql(with_inserts, "DELETE FROM t WHERE 1 = 1") == 106
        assert self._rows(with_inserts)["n"].tolist() == [0]

    def test_update_where_true_updates_every_row(self, with_inserts):
        assert execute_sql(with_inserts,
                           "UPDATE t SET v = 5 WHERE 1 = 1") == 106
        rows = self._rows(with_inserts)
        assert (rows["n"].tolist(), rows["s"].tolist()) == ([106], [530])

    @pytest.mark.parametrize("sql", ["DELETE FROM t WHERE 1 = 0",
                                     "UPDATE t SET v = 5 WHERE 1 = 0"])
    def test_where_false_changes_nothing(self, with_inserts, sql):
        assert execute_sql(with_inserts, sql) == 0
        rows = self._rows(with_inserts)
        assert (rows["n"].tolist(), rows["s"].tolist()) == ([106], [18])
