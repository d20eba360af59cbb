"""Partition placement, kept once per co-location group (sections 3-4).

Partition ``p`` of every table with the same partition count lives on the
same worker triple (Figure 2), and the rewriter plans local joins on that
promise; so there is one :class:`GroupMap` per partition count, which
every table of that *co-location group* reads. What placement reads of
HDFS is one walk, :meth:`PartitionPlacement.partition_files`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import DataLossError
from repro.flow.assignment import affinity_map, responsibility_assignment
from repro.pdt.stack import PdtStack


@dataclass(frozen=True)
class GroupMap:
    """Pid ``p`` of every table in the group is answered by
    ``responsible[p]``; its files are pinned to the ordered replica set
    ``targets[p]``, which holds ``responsible[p]``."""

    responsible: Tuple[str, ...]
    targets: Tuple[Tuple[str, ...], ...]


class PartitionPlacement:
    """The cluster's one store of partition placement."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: partition count -> the map of that co-location group
        self.groups: Dict[int, GroupMap] = {}
        #: what :meth:`min_replication_degree` last saw, and answered
        self._replication: Tuple[Optional[tuple], int] = (None, 0)

    def owners(self, table: str) -> Sequence[str]:
        """The responsible node of each pid of ``table`` (the session
        master for a replicated table)."""
        stored = self.cluster.table(table)
        if stored.is_replicated:
            return (self.cluster.session_master,) * stored.n_partitions
        return self.groups[stored.n_partitions].responsible

    def targets(self, table: str, pid: int) -> Optional[Sequence[str]]:
        """The HDFS placement policy's affinity: where the files of
        ``(table, pid)`` belong, or None for no table of the cluster."""
        stored = self.cluster.tables.get(table)
        return (None if stored is None
                else self.groups[stored.n_partitions].targets[pid])

    # ------------------------------------------------------------------- DDL

    def join(self, n_partitions: int) -> GroupMap:
        """The map a new table takes: its group's as it is now, whatever
        topology changes came since, or round-robin (pid ``p`` on workers
        ``p .. p+R-1``, the first responsible) for a group's first table."""
        if n_partitions not in self.groups:
            workers = self.cluster.workers
            r = min(self.cluster.config.replication, len(workers))
            targets = tuple(
                tuple(workers[(pid + i) % len(workers)] for i in range(r))
                for pid in range(n_partitions))
            self.groups[n_partitions] = GroupMap(
                tuple(nodes[0] for nodes in targets), targets)
        return self.groups[n_partitions]

    def leave(self, n_partitions: int) -> None:
        """A table was dropped: its group goes with the last one, so no
        map outlives the workers it names."""
        if all(stored.n_partitions != n_partitions
               for stored in self.cluster.tables.values()):
            del self.groups[n_partitions]

    # -------------------------------------------------------- partition files

    def partition_files(self) -> Iterator[Tuple[str, int, List[str]]]:
        """``(table, pid, data files)`` of every base-table partition."""
        for name, stored in self.cluster.tables.items():
            for pid, store in enumerate(stored.partitions):
                yield name, pid, store.file_paths()

    def holders(self, files: Sequence[str]) -> Set[str]:
        """Alive nodes holding a replica of any of ``files``."""
        return {h for p in files for h in self.cluster.hdfs.alive_replicas(p)}

    def is_local(self, files: Sequence[str], node: str) -> bool:
        return all(self.cluster.hdfs.is_local(p, node) for p in files)

    def check_data_loss(self, dying: str) -> None:
        """Refuse a node kill that would destroy the last copy of a
        partition's data or WAL."""
        cluster = self.cluster
        for name, pid, files in self.partition_files():
            wal_path = cluster.wal.partition_wal_path(name, pid)
            if cluster.hdfs.exists(wal_path):
                files.append(wal_path)
            for path in files:
                if not set(cluster.hdfs.alive_replicas(path)) - {dying}:
                    cluster.events.emit("cluster", "data_lost", table=name,
                                        partition=pid, node=dying, path=path)
                    raise DataLossError(
                        f"data loss: {dying} holds the last replica of "
                        f"table {name} partition {pid} ({path})")

    def covering_subset(self) -> List[str]:
        """Section 4's idle mode: the smallest worker subset -- ceil(N/R)
        at least -- holding a replica of every partition (greedy set
        cover), so an idle VectorH serves all data from it locally."""
        workers = self.cluster.workers
        r = min(self.cluster.config.replication, len(workers))
        active: List[str] = []
        uncovered = [s for s in (self.holders(files) for _, _, files
                                 in self.partition_files()) if s]
        while uncovered and len(active) < len(workers):
            best = max((w for w in workers if w not in active),
                       key=lambda w: sum(1 for s in uncovered if w in s))
            active.append(best)
            uncovered = [s for s in uncovered if best not in s]
        while len(active) < min(math.ceil(len(workers) / r), len(workers)):
            active.append(next(w for w in workers if w not in active))
        return active

    def audit(self) -> Dict[str, float]:
        """Per table and ``"overall"``, the fraction of partitions whose
        responsible node holds a local replica of every partition file.
        Below 1.0 responsibility has drifted away from the data (e.g.
        after DataNode failures before re-replication catches up), and
        the table emits a ``placement_drift`` event."""
        local: Dict[str, List[bool]] = {}
        for name, pid, files in self.partition_files():
            local.setdefault(name, []).append(
                self.is_local(files, self.owners(name)[pid]))
        audit: Dict[str, float] = {}
        for name, flags in local.items():
            audit[name] = sum(flags) / len(flags)
            if audit[name] < 1.0:
                self.cluster.events.emit("cluster", "placement_drift",
                                         table=name,
                                         fraction=round(audit[name], 4))
        every = [flag for flags in local.values() for flag in flags]
        audit["overall"] = sum(every) / len(every) if every else 1.0
        return audit

    def min_replication_degree(self) -> int:
        """Alive replicas of the worst-covered partition file. Sampled by
        the flight recorder after every statement, so the walk over the
        namespace is repeated only once HDFS says it changed."""
        cluster = self.cluster
        key = (cluster.hdfs.namespace_version, len(cluster.tables),
               len(cluster.workers))
        if key != self._replication[0]:
            self._replication = (key, min(
                (len(cluster.hdfs.alive_replicas(path))
                 for _, _, files in self.partition_files() for path in files),
                default=min(cluster.config.replication,
                            max(1, len(cluster.workers)))))
        return self._replication[1]

    # ------------------------------------------------------------- rebalance

    def rebalance(self, responsibility_workers: Optional[List[str]] = None,
                  ) -> Dict[str, int]:
        """Recompute every group's map by min-cost flow from where its
        replicas are now, responsibility optionally restricted to a worker
        subset; the new responsible node of each moved (table, pid)
        replays its WAL, then HDFS re-replicates and rebalances under the
        new maps. Counts moved pairs, repaired files and WAL bytes read."""
        cluster = self.cluster
        resp_workers = responsibility_workers or cluster.workers
        moved_partitions = wal_replayed_bytes = 0
        for n_parts, old in list(self.groups.items()):
            names = [name for name, stored in cluster.tables.items()
                     if stored.n_partitions == n_parts]
            parts = list(range(n_parts))
            local = {pid: set().union(*(
                self.holders(cluster.tables[name].partitions[pid].file_paths())
                for name in names)) for pid in parts}
            amap = affinity_map(parts, cluster.workers, local,
                                cluster.config.replication)
            resp = responsibility_assignment(
                parts, resp_workers,
                {p: set(amap[p]) & set(resp_workers) for p in parts})
            for pid, node in resp.items():
                # the two flows' capacities can disagree in corner cases
                if node not in amap[pid]:
                    amap[pid] = [node] + [
                        n for n in amap[pid] if n != node][:-1]
            new = self.groups[n_parts] = GroupMap(
                tuple(resp[p] for p in parts),
                tuple(tuple(amap[p]) for p in parts))
            for name in names:
                for pid in parts:
                    if new.responsible[pid] != old.responsible[pid]:
                        moved_partitions += 1
                        wal_replayed_bytes += self._replay_pdt(
                            name, pid, new.responsible[pid])
        repaired = cluster.hdfs.rereplicate()
        cluster.hdfs.rebalance()
        return {"moved_partitions": moved_partitions,
                "rereplicated_files": repaired,
                "wal_replayed_bytes": wal_replayed_bytes}

    def _replay_pdt(self, table: str, pid: int, node: str) -> int:
        """The new responsible node rebuilds the partition's PDTs and
        MinMax from its WAL; returns the WAL's size."""
        cluster = self.cluster
        stored = cluster.tables[table]
        store = stored.partitions[pid]
        log = cluster.wal.partition_log(table, pid, reader=node)
        stack = PdtStack(cluster.config.write_pdt_flush_threshold)
        for entries in log.commits:
            stack.apply(entries)
        if log.minmax is not None:
            store.minmax = store.minmax.from_record(log.minmax)
        stored.pdt[pid] = stack
        # the last MinMax record predates the commits after it, which
        # widened MinMax in the failed node's memory only
        stored.widen_minmax(pid, stack.scan_entries())
        path = cluster.wal.partition_wal_path(table, pid)
        return cluster.hdfs.file_size(path) if cluster.hdfs.exists(path) else 0
