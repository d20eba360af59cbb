"""Snapshot-epoch result cache for the server frontend.

The cache keys entries by a text key *plus the snapshot epoch vector*
of every table the statement reads -- the ``(table, epoch)`` pairs from
:meth:`repro.txn.manager.TransactionManager.epoch_vector`. Epochs bump
on every commit that changes a table's visible contents, so an entry is
valid exactly as long as a repeat execution would be bit-identical:

* a **hit** requires the *current* epochs to equal the stored ones --
  a lookup after any commit to a referenced table can never return the
  old rows;
* **eager invalidation** additionally evicts dependents the moment an
  epoch bumps (the frontend feeds ``epoch_listeners`` into
  :meth:`invalidate_table`), keeping the LRU free of dead entries.

The result cache copies column arrays on store *and* on serve, so a
client mutating a returned batch can never corrupt a later hit -- hits
must stay bit-identical to a cold run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.engine.batch import Batch
from repro.obs import MetricsRegistry

EpochVector = Tuple[Tuple[str, int], ...]
_Key = Tuple[str, EpochVector]


#: the ``cache`` label of every series this cache charges
_LABEL = "result"


def _counter_view(counter_attr: str):
    """A read-only attribute over this cache's registry series."""
    return property(
        lambda self: int(getattr(self, counter_attr).get(cache=_LABEL)))


def _copy(batch: Batch) -> Batch:
    return Batch({k: v.copy() for k, v in batch.columns.items()}, batch.n)


class EpochKeyedCache:
    """LRU cache of result batches keyed by (text, epoch vector), with a
    table->keys index; hits are bit-identical to a cold run."""

    def __init__(self, max_entries: int,
                 registry: Optional[MetricsRegistry] = None):
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[_Key, Batch]" = OrderedDict()
        self._deps: Dict[str, Set[_Key]] = {}
        registry = registry or MetricsRegistry()
        self._hits = registry.counter(
            "server_cache_hits_total", "Server cache hits",
            labels=("cache",))
        self._misses = registry.counter(
            "server_cache_misses_total", "Server cache misses",
            labels=("cache",))
        self._evictions = registry.counter(
            "server_cache_evictions_total",
            "Server cache entries evicted by LRU capacity",
            labels=("cache",))
        self._invalidations = registry.counter(
            "server_cache_invalidations_total",
            "Server cache entries evicted by an epoch bump",
            labels=("cache",))

    hits = _counter_view("_hits")
    misses = _counter_view("_misses")
    evictions = _counter_view("_evictions")
    invalidations = _counter_view("_invalidations")

    def __len__(self) -> int:
        return len(self._entries)

    # ----------------------------------------------------------- internals

    def _drop(self, key: _Key) -> None:
        self._entries.pop(key, None)
        for table, _epoch in key[1]:
            keys = self._deps.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._deps[table]

    # ----------------------------------------------------------------- API

    def lookup(self, text: str, epochs: EpochVector) -> Optional[Batch]:
        """A private copy of the batch cached for ``text`` at exactly
        ``epochs``, or None."""
        key = (text, epochs)
        value = self._entries.get(key)
        if value is None:
            self._misses.inc(cache=_LABEL)
            return None
        self._entries.move_to_end(key)
        self._hits.inc(cache=_LABEL)
        return _copy(value)

    def store(self, text: str, epochs: EpochVector, value: Batch,
              tables: Iterable[str]) -> None:
        if self.max_entries <= 0:
            return
        key = (text, epochs)
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = _copy(value)
            return
        while len(self._entries) >= self.max_entries:
            oldest, _ = self._entries.popitem(last=False)
            self._drop(oldest)
            self._evictions.inc(cache=_LABEL)
        self._entries[key] = _copy(value)
        for table in set(tables):
            self._deps.setdefault(table, set()).add(key)

    def invalidate_table(self, table: str) -> int:
        """Evict every entry that read ``table``; returns entries dropped."""
        keys = self._deps.pop(table, None)
        if not keys:
            return 0
        dropped = 0
        for key in sorted(keys):
            if key in self._entries:
                self._drop(key)
                self._invalidations.inc(cache=_LABEL)
                dropped += 1
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._deps.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "invalidations": self.invalidations}


def result_key(sql: str, params: Tuple[object, ...]) -> str:
    """The result-cache text of one statement: its exact text and the
    values bound to its ``$N`` (``()`` for a simple ``Query``). Two
    texts are two keys even where their fingerprints agree, and
    ``repr`` keeps ``1`` and ``"1"`` apart."""
    return repr((sql, params))
