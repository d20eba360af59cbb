"""The in-process HDFS cluster: namenode + datanodes + files.

Files are append-only byte streams. Every file has a replica set of up to R
datanodes chosen by the registered placement policy; all blocks of a file
live on the same replica set (matching stock HDFS per-file policy calls).
Reads are *short-circuit* (local, cheap) when the reader node holds a
replica, remote otherwise; both are counted per datanode so benchmarks can
report locality percentages and remote-byte volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import Config, DEFAULT_CONFIG
from repro.common.errors import HdfsError
from repro.common.retry import RetryPolicy
from repro.hdfs.placement import BlockPlacementPolicy, DefaultPlacementPolicy
from repro.obs import MetricsRegistry


def _series_property(family_attr: str, **fixed_labels):
    """A read-only DataNode attribute over one registry series."""
    return property(lambda self: int(getattr(self._hdfs, family_attr).get(
        node=self.name, **fixed_labels)))


class DataNode:
    """A datanode: an alive flag plus views of its IO accounting.

    The byte counters live in the cluster's :class:`MetricsRegistry`
    (``hdfs_read_bytes_total{node=...,mode=...}`` etc.), charged by the
    :class:`HdfsCluster` that owns the node; the attributes
    (``bytes_read_local`` and friends) are read-only views over them.
    """

    def __init__(self, name: str, hdfs: "HdfsCluster"):
        self.name = name
        self.alive = True
        self._hdfs = hdfs

    bytes_read_local = _series_property("_reads", mode="short_circuit")
    bytes_read_remote = _series_property("_reads", mode="remote")
    bytes_written = _series_property("_writes")
    bytes_rereplicated = _series_property("_rereplicated")
    bytes_stored = _series_property("_stored")


@dataclass
class HdfsFile:
    """An append-only file and the datanodes holding its replicas."""

    path: str
    data: bytearray = field(default_factory=bytearray)
    replicas: List[str] = field(default_factory=list)
    replication: int = 3

    @property
    def size(self) -> int:
        return len(self.data)


class HdfsCluster:
    """Namenode + datanodes. The single entry point for all file IO."""

    def __init__(
        self,
        node_names: List[str],
        config: Config = DEFAULT_CONFIG,
        placement_policy: Optional[BlockPlacementPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        events=None,
        sim_clock=None,
    ):
        self.config = config
        self.registry = registry or MetricsRegistry()
        self.events = events  # ClusterEventLog when part of a cluster
        self.nodes: Dict[str, DataNode] = {
            name: DataNode(name, self) for name in node_names
        }
        self.files: Dict[str, HdfsFile] = {}
        #: bumped whenever a file appears or goes, a replica set changes
        #: or a node's liveness does: what is derived from the namespace
        #: (the monitor's replication gauge) is recomputed only then
        self.namespace_version = 0
        self.placement_policy = placement_policy or DefaultPlacementPolicy(
            seed=config.seed
        )
        #: chaos hook: an object with ``on_read(cluster, path, node,
        #: n_bytes)`` that may raise :class:`HdfsError` (that replica's
        #: read fails; the client falls back to the next holder) or
        #: charge a slow-disk delay via :meth:`note_fault_delay`.
        self.fault_injector = None
        #: simulated clock charged by slow-disk faults and read backoff
        self.sim_clock = sim_clock
        #: bounded backoff when *every* replica of a range errors at once
        self.retry_policy = RetryPolicy()
        self._reads = self.registry.counter(
            "hdfs_read_bytes_total",
            "Bytes read from HDFS, short-circuit (local) vs remote",
            labels=("node", "mode"),
        )
        self._writes = self.registry.counter(
            "hdfs_written_bytes_total", "Bytes written to HDFS replicas",
            labels=("node",),
        )
        self._rereplicated = self.registry.counter(
            "hdfs_rereplicated_bytes_total",
            "Bytes copied by re-replication and rebalancing",
            labels=("node",),
        )
        self._stored = self.registry.gauge(
            "hdfs_bytes_stored", "Replica bytes currently stored",
            labels=("node",), sticky=True,
        )
        self._rereplication_events = self.registry.counter(
            "hdfs_rereplication_events_total",
            "Files that received a new replica after failures/rebalancing",
        )
        self._read_errors = self.registry.counter(
            "hdfs_read_errors_total",
            "Replica reads failed by fault injection, per serving node",
            labels=("node",),
        )
        self._fault_delay = self.registry.counter(
            "hdfs_fault_delay_seconds_total",
            "Simulated seconds added by slow-disk faults",
        )

    # -- fault bookkeeping (called by the chaos controller's injector) -------

    def note_fault_delay(self, seconds: float) -> None:
        if seconds > 0:
            self._fault_delay.inc(seconds)
            if self.sim_clock is not None:
                self.sim_clock.advance(seconds)

    @property
    def read_errors(self) -> int:
        return int(self._read_errors.total())

    # -- namespace -----------------------------------------------------------

    def alive_nodes(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.alive]

    def exists(self, path: str) -> bool:
        return path in self.files

    def list_files(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self.files if p.startswith(prefix))

    def file_size(self, path: str) -> int:
        return self._file(path).size

    def replica_locations(self, path: str) -> List[str]:
        return list(self._file(path).replicas)

    def alive_replicas(self, path: str) -> List[str]:
        """The file's replica holders that are alive, in replica order."""
        return [n for n in self._file(path).replicas if self.nodes[n].alive]

    def _file(self, path: str) -> HdfsFile:
        f = self.files.get(path)
        if f is None:
            raise HdfsError(f"no such file: {path}")
        return f

    # -- writes --------------------------------------------------------------

    def create(self, path: str, writer: str | None = None,
               replication: int | None = None) -> HdfsFile:
        """Create an empty file; replica targets come from the policy."""
        if path in self.files:
            raise HdfsError(f"file exists: {path}")
        r = replication if replication is not None else self.config.replication
        targets = self.placement_policy.choose_targets(
            path, writer, r, self.alive_nodes()
        )
        if not targets:
            raise HdfsError("no alive datanodes for placement")
        f = HdfsFile(path=path, replicas=targets, replication=r)
        self.files[path] = f
        self.namespace_version += 1
        return f

    def append(self, path: str, data: bytes, writer: str | None = None) -> None:
        """Append bytes; HDFS supports no other mutation."""
        f = self._file(path)
        f.data.extend(data)
        for name in f.replicas:
            self._stored.inc(len(data), node=name)
            self._writes.inc(len(data), node=name)

    def write_file(self, path: str, data: bytes, writer: str | None = None,
                   replication: int | None = None) -> None:
        """create + append in one step (the common pattern for chunk files)."""
        self.create(path, writer, replication)
        self.append(path, data, writer)

    def delete(self, path: str) -> None:
        f = self.files.pop(path, None)
        if f is None:
            raise HdfsError(f"no such file: {path}")
        self.namespace_version += 1
        for name in f.replicas:
            if name in self.nodes:
                self._stored.dec(f.size, node=name)

    # -- reads ---------------------------------------------------------------

    def read(self, path: str, offset: int = 0, length: int | None = None,
             reader: str | None = None) -> bytes:
        """Read a byte range, accounting short-circuit vs remote IO.

        If ``reader`` holds a replica the read is short-circuited (local
        disk, bypassing the datanode protocol); otherwise it is served
        remotely by the first alive replica holder.
        """
        f = self._file(path)
        if length is None:
            length = f.size - offset
        data = bytes(f.data[offset: offset + length])
        alive_holders = self.alive_replicas(path)
        if not alive_holders:
            raise HdfsError(f"all replicas of {path} are on dead nodes")
        # Preferred replica order: reader-local short circuit first, then
        # the remaining holders in replica order (the fallback chain a
        # DFS client walks when a datanode read errors out).
        if reader is not None and reader in alive_holders:
            candidates = [reader] + [n for n in alive_holders if n != reader]
        else:
            candidates = list(alive_holders)

        def serve_from(node: str) -> bytes:
            if self.fault_injector is not None:
                self.fault_injector.on_read(self, path, node, len(data))
            self._reads.inc(
                len(data), node=node,
                mode="short_circuit" if node == reader else "remote")
            return data

        if self.fault_injector is None:
            return serve_from(candidates[0])

        def attempt() -> bytes:
            last_error = None
            for node in candidates:
                try:
                    return serve_from(node)
                except HdfsError as exc:
                    self._read_errors.inc(node=node)
                    if self.events is not None:
                        self.events.emit("hdfs", "read_error",
                                         path=path, node=node)
                    last_error = exc
            raise HdfsError(
                f"every replica read of {path} failed: {last_error}"
            ) from last_error

        return self.retry_policy.run(attempt, clock=self.sim_clock,
                                     retryable=(HdfsError,))

    def is_local(self, path: str, node: str) -> bool:
        f = self._file(path)
        return node in f.replicas and self.nodes[node].alive

    # -- failures & re-replication --------------------------------------------

    def mark_node_dead(self, name: str) -> None:
        """Mark a datanode dead without re-replicating yet.

        Used by VectorH's failure handling, which first recomputes the
        affinity map (so the placement policy steers re-replication to the
        right survivors) and only then triggers :meth:`rereplicate`.
        """
        node = self.nodes.get(name)
        if node is None or not node.alive:
            raise HdfsError(f"cannot fail node {name}")
        node.alive = False
        self.namespace_version += 1
        if self.events is not None:
            self.events.emit("hdfs", "node_dead", node=name)

    def fail_node(self, name: str) -> int:
        """Kill a datanode, then re-replicate under-replicated files.

        Returns the number of files that received a new replica. New targets
        come from the *registered* placement policy -- the hook that lets
        VectorH preserve partition affinity through failures.
        """
        self.mark_node_dead(name)
        return self.rereplicate()

    def add_node(self, name: str) -> None:
        if name in self.nodes and self.nodes[name].alive:
            raise HdfsError(f"node already present: {name}")
        self.nodes[name] = DataNode(name, self)
        self.namespace_version += 1
        if self.events is not None:
            self.events.emit("hdfs", "node_added", node=name)

    def _copy_replica(self, f: HdfsFile, target: str) -> None:
        self._stored.inc(f.size, node=target)
        self._rereplicated.inc(f.size, node=target)

    def rereplicate(self) -> int:
        """Bring every file back to its replication degree."""
        alive = self.alive_nodes()
        repaired = 0
        self.namespace_version += 1
        for f in self.files.values():
            live = self.alive_replicas(f.path)
            missing = min(f.replication, len(alive)) - len(live)
            if missing <= 0:
                f.replicas = live
                continue
            new_targets = self.placement_policy.choose_targets(
                f.path, None, missing, alive, current_holders=live
            )
            for target in new_targets:
                live.append(target)
                self._copy_replica(f, target)
            f.replicas = live
            repaired += 1
        if repaired:
            self._rereplication_events.inc(repaired)
            if self.events is not None:
                self.events.emit("hdfs", "rereplication", files=repaired)
        return repaired

    def rebalance(self) -> int:
        """Namenode re-balancing: move replicas of policy-pinned files to
        their desired datanodes (the other hook VectorH's instrumented
        placement serves). Returns the number of files adjusted."""
        pinned = getattr(self.placement_policy, "pinned_targets", None)
        if pinned is None:
            return 0
        alive = self.alive_nodes()
        moved = 0
        self.namespace_version += 1
        for f in self.files.values():
            desired = pinned(f.path, alive)
            if not desired:
                continue
            current = self.alive_replicas(f.path)
            if set(desired) == set(current):
                continue
            for target in desired:
                if target not in current:
                    self._copy_replica(f, target)
            for holder in current:
                if holder not in desired:
                    self._stored.dec(f.size, node=holder)
            f.replicas = list(desired)
            moved += 1
        if moved:
            self._rereplication_events.inc(moved)
            if self.events is not None:
                self.events.emit("hdfs", "rebalance", files=moved)
        return moved

    # -- statistics ------------------------------------------------------------

    def locality_fraction(self) -> float:
        """Fraction of all read bytes served short-circuit."""
        local = sum(n.bytes_read_local for n in self.nodes.values())
        total = self.total_bytes_read()
        return 1.0 if total == 0 else local / total

    def total_bytes_read(self) -> int:
        return int(self._reads.total())
