"""Write-ahead logs on HDFS.

One WAL file per table partition (only its responsible node touches it)
plus one reduced global WAL for 2PC decisions, DDL and MinMax snapshots.
Records are length-prefixed pickled frames appended to HDFS files; after
update propagation a partition's WAL is re-created empty (HDFS cannot
truncate, so delete + create -- the same chunk-file trick as table data).

A txn's redo is written once, in its prepare record; its commit or abort
record only names the txn (presumed-abort 2PC). What a propagation keeps
in the PDT is logged the same way, as txn 0 (real txn ids start at 1).
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.hdfs.cluster import HdfsCluster

_LEN = struct.Struct("<I")


@dataclass
class WalRecord:
    """One log record: a 2PC step, DDL statement or MinMax snapshot."""

    #: partition WAL: "prepare" (txn_id, entries), "commit" / "abort"
    #: (txn_id,), "minmax"; global WAL: "decision", "ddl"
    kind: str
    payload: object

    def to_bytes(self) -> bytes:
        body = pickle.dumps((self.kind, self.payload), protocol=4)
        return _LEN.pack(len(body)) + body

    @classmethod
    def stream_from(cls, data: bytes) -> Iterator["WalRecord"]:
        offset = 0
        while offset < len(data):
            (length,) = _LEN.unpack_from(data, offset)
            offset += _LEN.size
            kind, payload = pickle.loads(data[offset: offset + length])
            offset += length
            yield cls(kind, payload)


@dataclass
class PartitionLog:
    """What one read of a partition WAL finds."""

    #: the prepared entries each commit record names, in commit order
    commits: List[list] = field(default_factory=list)
    #: the last MinMax record (None: there is none)
    minmax: Optional[dict] = None
    #: ``{txn_id: prepared entries}`` of every prepare record that no
    #: commit or abort record of the same txn follows: the in-doubt txns
    in_doubt: Dict[int, list] = field(default_factory=dict)


class WalManager:
    """Creates, appends and replays WALs for one database."""

    def __init__(self, hdfs: HdfsCluster, db_path: str = "/db",
                 registry=None):
        self.hdfs = hdfs
        self.base = f"{db_path.rstrip('/')}/wal"
        if registry is None:
            from repro.obs import MetricsRegistry
            registry = MetricsRegistry()
        self.registry = registry
        self._appends = registry.counter(
            "wal_appends_total", "WAL records appended, by record kind",
            labels=("kind",),
        )
        self._append_bytes = registry.counter(
            "wal_appended_bytes_total", "WAL bytes appended, by record kind",
            labels=("kind",),
        )

    # -- paths ---------------------------------------------------------------

    def partition_wal_path(self, table: str, pid: int) -> str:
        return f"{self.base}/{table}/part-{pid:04d}.wal"

    @property
    def global_wal_path(self) -> str:
        return f"{self.base}/global.wal"

    # -- lifecycle -------------------------------------------------------------

    def create_partition_wal(self, table: str, pid: int,
                             writer: Optional[str] = None) -> None:
        path = self.partition_wal_path(table, pid)
        if not self.hdfs.exists(path):
            self.hdfs.create(path, writer)

    def ensure_global_wal(self, writer: Optional[str] = None) -> None:
        if not self.hdfs.exists(self.global_wal_path):
            self.hdfs.create(self.global_wal_path, writer)

    def reset_partition_wal(self, table: str, pid: int,
                            writer: Optional[str] = None) -> None:
        """After update propagation the old log is obsolete: delete+create."""
        path = self.partition_wal_path(table, pid)
        if self.hdfs.exists(path):
            self.hdfs.delete(path)
        self.hdfs.create(path, writer)

    # -- appends ------------------------------------------------------------------

    def _append(self, path: str, kind: str, payload,
                writer: Optional[str]) -> int:
        data = WalRecord(kind, payload).to_bytes()
        self.hdfs.append(path, data, writer)
        self._appends.inc(kind=kind)
        self._append_bytes.inc(len(data), kind=kind)
        return len(data)

    def _log(self, table: str, pid: int, kind: str, payload,
             writer: Optional[str]) -> int:
        return self._append(self.partition_wal_path(table, pid), kind,
                            payload, writer)

    def log_prepare(self, table: str, pid: int, txn_id: int, entries,
                    writer: Optional[str] = None) -> int:
        """Phase-1 force-log: the redo entries this partition would apply,
        the only record that carries them; returns the record's size.

        Presumed-abort 2PC: a prepare record with no later commit record
        and no global decision means the transaction is in doubt and
        resolves to abort; with a global commit decision, recovery applies
        these entries and appends the missing commit record.
        """
        return self._log(table, pid, "prepare", (txn_id, entries), writer)

    def log_commit(self, table: str, pid: int, txn_id: int,
                   writer: Optional[str] = None) -> int:
        """The outcome of a prepared txn: it names the prepare record
        whose entries this partition applied."""
        return self._log(table, pid, "commit", (txn_id,), writer)

    def log_abort(self, table: str, pid: int, txn_id: int,
                  writer: Optional[str] = None) -> int:
        """Mark a prepared txn resolved-as-abort so later scans skip it."""
        return self._log(table, pid, "abort", (txn_id,), writer)

    def log_minmax(self, table: str, pid: int, minmax_record: dict,
                   writer: Optional[str] = None) -> int:
        return self._log(table, pid, "minmax", minmax_record, writer)

    def log_global(self, kind: str, payload,
                   writer: Optional[str] = None) -> None:
        self.ensure_global_wal(writer)
        self._append(self.global_wal_path, kind, payload, writer)

    # -- replay ----------------------------------------------------------------------

    def replay_partition(self, table: str, pid: int,
                         reader: Optional[str] = None) -> List[WalRecord]:
        """Read a partition WAL (e.g. when a new responsible node starts)."""
        path = self.partition_wal_path(table, pid)
        if not self.hdfs.exists(path):
            return []
        data = self.hdfs.read(path, reader=reader)
        return list(WalRecord.stream_from(data))

    def replay_global(self, reader: Optional[str] = None) -> List[WalRecord]:
        if not self.hdfs.exists(self.global_wal_path):
            return []
        data = self.hdfs.read(self.global_wal_path, reader=reader)
        return list(WalRecord.stream_from(data))

    # -- recovery scans ---------------------------------------------------------

    def partition_log(self, table: str, pid: int,
                      reader: Optional[str] = None) -> PartitionLog:
        """Read a partition WAL once: each commit record paired with its
        txn's prepare record, the last MinMax record and the in-doubt
        prepares (failover replay, the chaos checker and presumed-abort
        recovery all start here)."""
        log = PartitionLog()
        for rec in self.replay_partition(table, pid, reader=reader):
            if rec.kind == "minmax":
                log.minmax = rec.payload
            elif rec.kind == "prepare":
                txn_id, entries = rec.payload
                log.in_doubt[txn_id] = entries
            elif rec.kind == "commit":
                log.commits.append(log.in_doubt.pop(rec.payload[0]))
            elif rec.kind == "abort":
                log.in_doubt.pop(rec.payload[0], None)
        return log

    def decisions(self, reader: Optional[str] = None) -> dict:
        """``{txn_id: outcome}`` from the global WAL's decision records."""
        out: dict = {}
        for rec in self.replay_global(reader=reader):
            if rec.kind == "decision":
                txn_id, outcome = rec.payload[0], rec.payload[1]
                out[txn_id] = outcome
        return out
