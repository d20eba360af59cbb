"""A small predictive buffer manager over HDFS reads.

Vectorwise's buffer manager prefetches for concurrent scans [Świtakowski
et al., PVLDB'12]; here we keep an LRU block cache with explicit prefetch
hints and hit/miss/eviction accounting charged to the metrics registry
(``buffer_hits_total{node=...}`` and friends). Only misses touch HDFS
(and hence show up in locality/IO counters), so benchmarks distinguish
cold from hot scans the same way the paper's "hot" Figure-1 runs do.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.hdfs.cluster import HdfsCluster
from repro.obs import MetricsRegistry

_Key = Tuple[str, int, int]


def _stat_property(counter_attr: str):
    """A read-only BufferPool attribute over one registry series."""
    return property(
        lambda self: int(getattr(self, counter_attr).get(node=self.node)))


class BufferPool:
    """LRU cache of (path, offset, length) -> bytes."""

    def __init__(self, hdfs: HdfsCluster, capacity_bytes: int = 64 << 20,
                 registry: Optional[MetricsRegistry] = None,
                 node: str = "local"):
        self.hdfs = hdfs
        self.capacity_bytes = capacity_bytes
        self.node = node
        self.registry = registry or MetricsRegistry()
        self._cache: "OrderedDict[_Key, bytes]" = OrderedDict()
        self._used = 0
        self._hits = self.registry.counter(
            "buffer_hits_total", "Buffer pool block hits", labels=("node",)
        )
        self._misses = self.registry.counter(
            "buffer_misses_total", "Buffer pool block misses (HDFS reads)",
            labels=("node",),
        )
        self._prefetches = self.registry.counter(
            "buffer_prefetches_total", "Blocks warmed ahead of scans",
            labels=("node",),
        )
        self._evictions = self.registry.counter(
            "buffer_evictions_total", "Blocks evicted by LRU pressure",
            labels=("node",),
        )
        self._used_gauge = self.registry.gauge(
            "buffer_used_bytes", "Bytes currently cached",
            labels=("node",), sticky=True,
        )

    hits = _stat_property("_hits")
    misses = _stat_property("_misses")
    prefetches = _stat_property("_prefetches")
    evictions = _stat_property("_evictions")

    def read(self, path: str, offset: int, length: int,
             reader: Optional[str] = None) -> bytes:
        key = (path, offset, length)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._hits.inc(node=self.node)
            return cached
        self._misses.inc(node=self.node)
        data = self.hdfs.read(path, offset, length, reader=reader)
        self._insert(key, data)
        return data

    def prefetch(self, path: str, offset: int, length: int,
                 reader: Optional[str] = None) -> None:
        """Warm the cache ahead of a scan (predictive buffer manager)."""
        key = (path, offset, length)
        if key in self._cache:
            return
        self._prefetches.inc(node=self.node)
        data = self.hdfs.read(path, offset, length, reader=reader)
        self._insert(key, data)

    def invalidate(self, path_prefix: str = "") -> None:
        stale = [k for k in self._cache if k[0].startswith(path_prefix)]
        for key in stale:
            self._used -= len(self._cache.pop(key))
        self._used_gauge.set(self._used, node=self.node)

    def clear(self) -> None:
        self._cache.clear()
        self._used = 0
        self._used_gauge.set(0, node=self.node)

    def _insert(self, key: _Key, data: bytes) -> None:
        self._cache[key] = data
        self._used += len(data)
        while self._used > self.capacity_bytes and self._cache:
            _, evicted = self._cache.popitem(last=False)
            self._used -= len(evicted)
            self._evictions.inc(node=self.node)
        self._used_gauge.set(self._used, node=self.node)
