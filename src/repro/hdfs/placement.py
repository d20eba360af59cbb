"""Block placement policies (paper section 3, "Instrumenting HDFS Replication").

HDFS lets a client register a ``BlockPlacementPolicy`` whose
``choose_targets()`` receives the file path and returns the datanodes that
should hold the replicas. It is consulted both when a client appends and
when the namenode re-replicates in the background -- which is exactly the
hook VectorH instruments to keep table partitions co-located even as the
cluster composition changes.
"""

from __future__ import annotations

import random
import re
from typing import Callable, List, Optional, Sequence, Tuple

#: a partition's data (``…/{table}/part-NNNN/…``) or WAL (``….wal``) file
_PARTITION_FILE = re.compile(r"/([^/]+)/part-(\d+)(?:/|\.wal$)")


def partition_of(path: str) -> Optional[Tuple[str, int]]:
    """``(table, pid)`` of a partition file, matched on whole path
    components: table ``a`` does not claim the files of table ``ba``."""
    match = _PARTITION_FILE.search(path)
    return None if match is None else (match[1], int(match[2]))


class BlockPlacementPolicy:
    """Interface: pick replica target datanodes for a file."""

    def choose_targets(
        self,
        path: str,
        writer: str | None,
        n_replicas: int,
        alive_nodes: Sequence[str],
        current_holders: Sequence[str] = (),
    ) -> List[str]:
        """Return up to ``n_replicas`` datanode names (excluding holders)."""
        raise NotImplementedError


class DefaultPlacementPolicy(BlockPlacementPolicy):
    """Stock HDFS behaviour: first copy on the writer, the rest random.

    (We have no rack topology; the namenode-chosen replicas are a seeded
    random spread, which is what the paper says degrades affinity whenever
    nodes fail or the worker set changes.)
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose_targets(self, path, writer, n_replicas, alive_nodes,
                       current_holders=()):
        targets: List[str] = []
        holders = set(current_holders)
        if writer is not None and writer in alive_nodes and writer not in holders:
            targets.append(writer)
        pool = [n for n in alive_nodes
                if n not in holders and n not in targets]
        self._rng.shuffle(pool)
        targets.extend(pool[: n_replicas - len(targets)])
        return targets[:n_replicas]


class VectorHPlacementPolicy(BlockPlacementPolicy):
    """VectorH's instrumented policy: place by partition affinity.

    ``affinity(table, pid)`` lists the datanodes that should hold every
    file of that partition (:func:`partition_of`), or is None; files it
    does not pin fall back to the default policy.
    """

    def __init__(self, affinity: Optional[Callable] = None,
                 fallback: BlockPlacementPolicy | None = None):
        self.affinity = affinity or (lambda table, pid: None)
        self._fallback = fallback or DefaultPlacementPolicy()

    def pinned_targets(self, path: str, alive_nodes) -> Optional[List[str]]:
        """The alive nodes the affinity pins this file to, or None for
        files it does not pin (the namenode's re-balancer only moves
        pinned files)."""
        partition = partition_of(path)
        nodes = None if partition is None else self.affinity(*partition)
        if nodes is None:
            return None
        alive = set(alive_nodes)
        return [n for n in nodes if n in alive]

    def choose_targets(self, path, writer, n_replicas, alive_nodes,
                       current_holders=()):
        pinned = self.pinned_targets(path, alive_nodes)
        if pinned is None:
            return self._fallback.choose_targets(
                path, writer, n_replicas, alive_nodes, current_holders
            )
        holders = set(current_holders)
        targets = [n for n in pinned if n not in holders]
        if len(targets) < n_replicas:
            extra = self._fallback.choose_targets(
                path, writer, n_replicas - len(targets), alive_nodes,
                list(holders | set(targets)),
            )
            targets.extend(extra)
        return targets[:n_replicas]
