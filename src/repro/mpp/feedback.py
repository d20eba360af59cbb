"""Cardinality feedback: plan-fragment signatures and the observed-rows store.

The Parallel Rewriter plans from static table statistics (stable row
counts times fixed selectivities), which is exactly how VectorH's
rewriter works -- and exactly why repeated misestimates repeat their
damage: a build side estimated at 50 rows is broadcast again on every
run even after the first run measured 50,000. This module closes the
loop the ROADMAP called out:

* :func:`fragment_signature` renders a *normalized* deterministic string
  for a logical subtree whose output cardinality is worth remembering
  (scans, selections, joins, aggregations). Projections are transparent
  (they never change cardinality), join sides are sorted for inner joins
  (so a build/probe swap still matches); the binder numbers its
  generated ``__agg_in_N`` names per statement, so a text always matches.
* :class:`CardinalityFeedbackStore` maps signatures to the last observed
  row count. ``lookup`` is what the rewriter consults *before* static
  stats; ``observe`` is fed automatically after every managed query (and
  every EXPLAIN ANALYZE) from the profile node of each annotated plan
  node -- the rows harvested are the rows the annotated plan prints.

The store is deliberately last-write-wins with no decay: the simulation
is deterministic, so the most recent observation *is* the truth for the
current data, and keeping the policy trivial keeps warmed-store planning
bit-reproducible (the determinism acceptance test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mpp import logical as L
from repro.obs import MetricsRegistry


def fragment_signature(node: L.LogicalPlan) -> Optional[str]:
    """Deterministic signature of a logical subtree, or None when the
    fragment's cardinality is not worth remembering (sorts, limits,
    windows: they either preserve or truncate their input)."""
    if isinstance(node, L.LScan):
        preds = ",".join(f"{c}{op}{v!r}" for c, op, v in node.skip_predicates)
        return f"scan({node.table};{preds})"
    if isinstance(node, L.LSelect):
        child = fragment_signature(node.child)
        if child is None:
            return None
        return f"select({repr(node.predicate)})|{child}"
    if isinstance(node, L.LProject):
        # projections never change cardinality: transparent
        return fragment_signature(node.child)
    if isinstance(node, L.LJoin):
        build = fragment_signature(node.build)
        probe = fragment_signature(node.probe)
        if build is None or probe is None:
            return None
        bs = f"{build}#{','.join(node.build_keys)}"
        ps = f"{probe}#{','.join(node.probe_keys)}"
        # inner joins are symmetric: sort the sides so the cost-based
        # build/probe swap still hits the same entry
        sides = sorted((bs, ps)) if node.how == "inner" else [bs, ps]
        return f"join({node.how};{sides[0]}|{sides[1]})"
    if isinstance(node, L.LAggr):
        child = fragment_signature(node.child)
        if child is None:
            return None
        funcs = ",".join(f"{func}({repr(expr)})"
                         for _name, func, expr in node.aggregates)
        return f"aggr({','.join(node.group_by)};{funcs})|{child}"
    return None


@dataclass
class FeedbackEntry:
    """One remembered fragment: what we guessed, what we measured."""

    signature: str
    estimated: float
    observed: float
    hits: int = 0
    updated: float = 0.0  # sim seconds of the last observe


#: entries a store keeps: every fresh-literal statement adds a couple,
#: so past this the least recently observed or hit one makes room
FEEDBACK_CAPACITY = 4096


class CardinalityFeedbackStore:
    """Signature -> observed-rows memory shared by all plans of a cluster.

    ``lookup`` counts hits (and the ``plan_feedback_hits_total`` counter)
    so the ``vh$plan_feedback`` system table shows which fragments
    actually steer plans; ``observe`` is last-write-wins and stamps the
    simulated clock. Bounded at :data:`FEEDBACK_CAPACITY` entries:
    ``entries`` is kept in the order they were last observed or hit, so
    twin runs evict the same ones (``plan_feedback_evicted_total``).
    """

    def __init__(self, registry=None, sim_clock=None):
        self.entries: Dict[str, FeedbackEntry] = {}
        self.sim_clock = sim_clock
        registry = registry or MetricsRegistry()
        self._hits = registry.counter(
            "plan_feedback_hits_total",
            "Rewriter cardinality estimates answered from feedback")
        self._evicted = registry.counter(
            "plan_feedback_evicted_total",
            "Feedback entries dropped to stay within capacity")

    def __len__(self) -> int:
        return len(self.entries)

    def _touch(self, entry: FeedbackEntry) -> None:
        """Make ``entry`` the most recently used; evict the least."""
        self.entries.pop(entry.signature, None)
        self.entries[entry.signature] = entry
        if len(self.entries) > FEEDBACK_CAPACITY:
            del self.entries[next(iter(self.entries))]
            self._evicted.inc()

    def observe(self, signature: str, estimated: float,
                observed: float) -> None:
        entry = self.entries.get(signature)
        if entry is None:
            entry = FeedbackEntry(signature, 0.0, 0.0)
        entry.estimated = float(estimated)
        entry.observed = float(observed)
        entry.updated = (self.sim_clock.seconds
                         if self.sim_clock is not None else 0.0)
        self._touch(entry)

    def lookup(self, signature: str) -> Optional[float]:
        entry = self.entries.get(signature)
        if entry is None:
            return None
        entry.hits += 1
        self._hits.inc()
        self._touch(entry)
        return entry.observed

    def snapshot(self) -> List[FeedbackEntry]:
        return [self.entries[k] for k in sorted(self.entries)]

