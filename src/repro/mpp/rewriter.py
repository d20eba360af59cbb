"""The Parallel Rewriter: serial logical plan -> distributed physical plan.

Mirrors paper section 5: the rewriter tracks structural properties
(partitioning with its partition->node mapping, sort order, replication)
and applies transformations that avoid DXchg operators wherever possible:

* **local join** -- matching partitions of co-partitioned tables join on
  their responsible node with no communication;
* **replicate build side** -- a build side computed entirely from
  replicated tables joins locally on every node;
* **partial aggregation** -- aggregate locally before the DXchgHashSplit
  so only group partials travel;
* **merge join** -- co-ordered clustered tables join by merging;
* **partition pruning** -- a scan whose ``=`` literals fix the partition
  key reads only the partitions they hash to (``PScan.partitions``).

Each rule has a flag so the Figure-5 ablation benchmark can toggle it. The
choice between broadcasting a build side and reshuffling both sides is
cost-based on cardinality estimates, with DXchg traffic weighted heavily.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.engine.expressions import Col, Div, Expr
from repro.engine.operators import AggSpec
from repro.mpp import logical as L
from repro.mpp import plan as P
from repro.mpp.feedback import fragment_signature
from repro.mpp.plan import (BOUND_AT_EXECUTE, ExchangeDecision,
                            NodeEstimate, QueryPlan, RewriterFlags,
                            reached_partitions)


class ParallelRewriter:
    """Produces a distributed plan rooted at the session master."""

    def __init__(self, cluster, flags: Optional[RewriterFlags] = None):
        self.cluster = cluster
        self.flags = flags or RewriterFlags()
        self._annotations: Dict[P.PhysNode, NodeEstimate] = {}
        self._decisions: List[ExchangeDecision] = []
        self._est_memo: Dict[int, Tuple[float, bool]] = {}
        self._sig_memo: Dict[int, Optional[str]] = {}
        self._reached: Dict[int, object] = {}
        self._tables: Dict[str, object] = {}
        self._read: Dict[str, Optional[float]] = {}

    # ---------------------------------------------------------------- public

    def plan(self, root: L.LogicalPlan) -> QueryPlan:
        """Plan once: physical tree + cardinality annotations + the
        exchange decisions the run may revisit mid-query. Each scan skips
        on the triples its selections imply
        (:func:`~repro.mpp.logical.derive_scan_triples`)."""
        self._annotations = {}
        self._decisions = []
        self._est_memo = {}
        self._sig_memo = {}
        self._reached = {}
        self._tables = {}
        self._read = {}
        phys, _ = self._rw(L.derive_scan_triples(root))
        if phys.distribution.kind != P.MASTER:
            phys = P.DXUnion(phys)
        return QueryPlan(logical=root, root=phys,
                         annotations=self._annotations,
                         decisions=self._decisions, flags=self.flags,
                         tables=self._tables, feedback=self._read)

    # ------------------------------------------------------------ estimates

    def _signature(self, node: L.LogicalPlan) -> Optional[str]:
        key = id(node)
        if key not in self._sig_memo:
            self._sig_memo[key] = fragment_signature(node)
        return self._sig_memo[key]

    def _estimate(self, node: L.LogicalPlan) -> Tuple[float, bool]:
        """(rows, feedback_backed): observed cardinality when the store
        remembers this fragment, static stats otherwise."""
        key = id(node)
        memo = self._est_memo.get(key)
        if memo is not None:
            return memo
        store = self.cluster.feedback
        if store is not None:
            signature = self._signature(node)
            if signature is not None:
                observed = self._read[signature] = store.lookup(signature)
                if observed is not None:
                    result = (max(float(observed), 1.0), True)
                    self._est_memo[key] = result
                    return result
        result = (self._static_rows(node), False)
        self._est_memo[key] = result
        return result

    def estimate_rows(self, node: L.LogicalPlan) -> float:
        return self._estimate(node)[0]

    def estimate_with_source(self, node: L.LogicalPlan) -> Tuple[float, str]:
        rows, feedback = self._estimate(node)
        return rows, ("feedback" if feedback else "static")

    def _static_rows(self, node: L.LogicalPlan) -> float:
        if isinstance(node, L.LScan):
            parts = self.cluster.table(node.table).partitions
            pids = self._reached.get(id(node))
            if pids is None:
                rows = sum(p.n_stable for p in parts)
            elif pids is BOUND_AT_EXECUTE:
                # one partition, not known before bind: the mean gives
                # every key the same template
                rows = sum(p.n_stable for p in parts) / len(parts)
            else:
                rows = sum(parts[pid].n_stable for pid in pids)
            if node.skip_predicates:
                rows *= 0.3 ** len(node.skip_predicates)
            return max(rows, 1.0)
        if isinstance(node, L.LSelect):
            return max(self.estimate_rows(node.child) * 0.3, 1.0)
        if isinstance(node, L.LProject):
            return self.estimate_rows(node.child)
        if isinstance(node, L.LJoin):
            probe = self.estimate_rows(node.probe)
            if node.how in ("semi", "anti"):
                return max(probe * 0.5, 1.0)
            return probe  # FK-join assumption
        if isinstance(node, L.LAggr):
            if not node.group_by:
                return 1.0  # a total: one row whatever comes in
            return min(self.estimate_rows(node.child), 10_000.0)
        if isinstance(node, (L.LSort, L.LTopN, L.LLimit)):
            return self.estimate_rows(node.child)
        return 1000.0

    # ----------------------------------------------------------------- rules

    _ANNOTATED = (L.LScan, L.LSelect, L.LProject, L.LJoin, L.LAggr)

    def _rw(self, node: L.LogicalPlan) -> Tuple[P.PhysNode, Tuple[str, ...]]:
        """Dispatch wrapper: cost-based join-order fix-ups before the
        rewrite, cardinality annotations on the produced node after."""
        if isinstance(node, L.LJoin):
            node = self._maybe_swap(node)
        phys, order = self._rw_node(node)
        if isinstance(node, self._ANNOTATED):
            rows, source = self.estimate_with_source(node)
            self._annotations[phys] = NodeEstimate(
                signature=self._signature(node), rows=rows, source=source)
        return phys, order

    def _maybe_swap(self, node: L.LJoin) -> L.LJoin:
        """Feedback-driven build/probe swap: when observed cardinalities
        show the planned build side is the bigger one, hash the smaller.
        Only inner joins without a payload column keep identical output
        columns under the swap, and only feedback-backed numbers justify
        overriding the written order (static guesses keep plans stable)."""
        if node.how != "inner" or node.build_payload is not None:
            return node
        b_rows, b_fb = self._estimate(node.build)
        p_rows, p_fb = self._estimate(node.probe)
        if (b_fb or p_fb) and b_rows > p_rows:
            return L.LJoin(build=node.probe, probe=node.build,
                           build_keys=list(node.probe_keys),
                           probe_keys=list(node.build_keys),
                           how="inner", build_payload=None)
        return node

    def _rw_node(self, node: L.LogicalPlan) \
            -> Tuple[P.PhysNode, Tuple[str, ...]]:
        """Returns (physical node, sort-order property)."""
        if isinstance(node, L.LScan):
            return self._rw_scan(node)
        if isinstance(node, L.LSelect):
            child, order = self._rw(node.child)
            return P.PSelect(child, node.predicate), order
        if isinstance(node, L.LProject):
            child, order = self._rw(node.child)
            phys = P.PProject(child, node.outputs)
            kept = set(node.outputs)
            dist = child.distribution
            if dist.is_partitioned and not set(dist.keys) <= kept:
                phys.distribution = P.Distribution(P.PARTITIONED)
            order = tuple(o for o in order if o in kept)
            return phys, order
        if isinstance(node, L.LJoin):
            return self._rw_join(node)
        if isinstance(node, L.LAggr):
            return self._rw_aggr(node)
        if isinstance(node, L.LSort):
            child, _ = self._rw(node.child)
            if child.distribution.kind != P.MASTER:
                child = P.DXUnion(child)
            asc = node.ascending or [True] * len(node.keys)
            return P.PSort(child, node.keys, asc), tuple(node.keys)
        if isinstance(node, L.LTopN):
            child, _ = self._rw(node.child)
            asc = node.ascending or [True] * len(node.keys)
            if child.distribution.kind in (P.PARTITIONED, P.REPLICATED):
                partial = P.PTopN(child, node.keys, node.n, asc, "partial")
                gathered = P.DXUnion(partial)
                return (P.PTopN(gathered, node.keys, node.n, asc, "final"),
                        tuple(node.keys))
            return (P.PTopN(child, node.keys, node.n, asc, "final"),
                    tuple(node.keys))
        if isinstance(node, L.LLimit):
            child, order = self._rw(node.child)
            if child.distribution.kind != P.MASTER:
                child = P.DXUnion(child)
            return P.PLimit(child, node.n), order
        if isinstance(node, L.LWindow):
            return self._rw_window(node)
        if isinstance(node, L.LUnionAll):
            kids = []
            for child in node.inputs:
                phys, _ = self._rw(child)
                if phys.distribution.kind != P.MASTER:
                    phys = P.DXUnion(phys)
                kids.append(phys)
            return P.PUnionAll(kids, P.Distribution(P.MASTER)), ()
        raise PlanError(f"unknown logical node {node!r}")

    def _rw_window(self, node: L.LWindow):
        """Window functions compute per PARTITION-BY group: like an
        aggregation, a group must live wholly on one worker, so reshuffle
        on the partition keys unless the input partitioning already
        guarantees it (or gather everything when there are no keys)."""
        child, _ = self._rw(node.child)
        dist = child.distribution
        if node.partition_by:
            aligned = (dist.is_partitioned and dist.keys
                       and set(dist.keys) <= set(node.partition_by))
            if not aligned and dist.kind != P.MASTER \
                    and dist.kind != P.REPLICATED:
                child = P.DXHashSplit(child, node.partition_by)
            out_dist = child.distribution
        else:
            if child.distribution.kind == P.PARTITIONED:
                child = P.DXUnion(child)
            out_dist = child.distribution
        phys = P.PWindow(child, node.partition_by, node.order_by,
                         node.functions, node.ascending, out_dist)
        return phys, tuple(node.partition_by) + tuple(node.order_by)

    def _rw_scan(self, node: L.LScan) -> Tuple[P.PhysNode, Tuple[str, ...]]:
        table = self._tables[node.table] = self.cluster.table(node.table)
        if table.is_replicated:
            dist = P.Distribution(P.REPLICATED)
        else:
            dist = P.Distribution(
                P.PARTITIONED, tuple(table.schema.partition_key),
                co_location=node.table,
            )
        reached = reached_partitions(table, node.skip_predicates)
        if reached is not None:
            self._reached[id(node)] = reached
            # estimates made before (a join's swap test) read every
            # partition of this scan
            self._est_memo.clear()
        order = tuple(table.schema.clustered_on)
        order = tuple(c for c in order if c in node.columns)
        scan = P.PScan(node.table, node.columns, node.skip_predicates, dist)
        if reached is not BOUND_AT_EXECUTE:
            scan.partitions = reached
        return scan, order

    # ----------------------------------------------------------------- joins

    def _rw_join(self, node: L.LJoin) -> Tuple[P.PhysNode, Tuple[str, ...]]:
        build, border = self._rw(node.build)
        probe, porder = self._rw(node.probe)
        bdist, pdist = build.distribution, probe.distribution
        flags = self.flags

        def joined(b, p, dist) -> P.PhysNode:
            # merge join when both inputs arrive ordered on the join key
            if (flags.merge_join and node.how == "inner"
                    and len(node.build_keys) == 1
                    and border[:1] == (node.build_keys[0],)
                    and porder[:1] == (node.probe_keys[0],)
                    and node.build_payload is None):
                return P.PMergeJoin(p, b, node.probe_keys[0],
                                    node.build_keys[0], dist)
            return self._key_filtered(P.PHashJoin(
                b, p, node.build_keys, node.probe_keys, node.how,
                node.build_payload, dist))

        # 1. both replicated -> replicated local join
        if bdist.kind == P.REPLICATED and pdist.kind == P.REPLICATED:
            return joined(build, probe, P.Distribution(P.REPLICATED)), porder

        # 2. replicate-build rule: build is replicated, probe partitioned
        if (flags.replicate_build and bdist.kind == P.REPLICATED
                and pdist.is_partitioned):
            return joined(build, probe, pdist), porder

        # 3. co-located local join
        if (flags.local_join and bdist.is_partitioned and pdist.is_partitioned
                and self._co_partitioned(bdist, node.build_keys,
                                         pdist, node.probe_keys)):
            return joined(build, probe, pdist), porder

        # 4. movement required: broadcast build vs reshuffle both
        n_workers = max(1, len(self.cluster.workers))
        build_rows = self.estimate_rows(node.build)
        probe_rows = self.estimate_rows(node.probe)
        broadcast_cost = build_rows * (n_workers - 1)
        reshuffle_cost = build_rows + probe_rows
        probe_aligned = pdist.is_partitioned and tuple(node.probe_keys) == \
            tuple(pdist.keys)
        if probe_aligned:
            reshuffle_cost = build_rows  # probe already in place
        # rows the *other* choice would move for the probe side -- what a
        # mid-query watcher needs to re-run this comparison with actuals
        probe_move_rows = 0.0 if probe_aligned else probe_rows
        if broadcast_cost <= reshuffle_cost:
            bcast = P.DXBroadcast(build)
            self._decisions.append(ExchangeDecision(
                node=bcast, signature=self._signature(node.build),
                choice="broadcast", estimated=build_rows,
                probe_move_rows=probe_move_rows, n_workers=n_workers))
            dist = pdist if pdist.is_partitioned else \
                P.Distribution(P.PARTITIONED)
            if not pdist.is_partitioned and pdist.kind != P.MASTER:
                dist = P.Distribution(P.REPLICATED)
            return joined(bcast, probe, dist), porder

        # Reshuffle the misaligned side(s). A side that keeps its table
        # partitioning dictates the partition->node mapping the other side
        # must follow (align_with), else both use the plain hash split.
        # Exploiting existing placement is part of the locality-detection
        # rule, so the local_join flag gates it (the Figure-5 ablation).
        build_aligned = (flags.local_join and bdist.is_partitioned
                         and tuple(bdist.keys) == tuple(node.build_keys))
        probe_aligned = probe_aligned and flags.local_join
        new_build, new_probe = build, probe
        if probe_aligned and not build_aligned:
            new_build = P.DXHashSplit(build, node.build_keys,
                                      align_with=pdist.co_location)
            out_co = pdist.co_location
        elif build_aligned and not probe_aligned:
            new_probe = P.DXHashSplit(probe, node.probe_keys,
                                      align_with=bdist.co_location)
            out_co = bdist.co_location
        elif probe_aligned and build_aligned:
            # same keys, but incompatible mappings: realign the build side
            new_build = P.DXHashSplit(build, node.build_keys,
                                      align_with=pdist.co_location)
            out_co = pdist.co_location
        else:
            new_build = P.DXHashSplit(build, node.build_keys)
            new_probe = P.DXHashSplit(probe, node.probe_keys)
            out_co = None
        if new_build is not build:
            self._decisions.append(ExchangeDecision(
                node=new_build, signature=self._signature(node.build),
                choice="repartition", estimated=build_rows,
                probe_move_rows=probe_move_rows, n_workers=n_workers))
        dist = P.Distribution(P.PARTITIONED, tuple(node.probe_keys),
                              co_location=out_co)
        # exchanges destroy order
        return joined(new_build, new_probe, dist), ()

    def _key_filtered(self, join: P.PHashJoin) -> P.PHashJoin:
        """Link ``join`` to its probe-side scan where the finished build's
        key set may filter that scan: a row without a partner leaves an
        inner or semi join anyway; the scan is partitioned and only
        filters and column renames lie between the two, so both run on
        one stream and the build is finished before the scan's first
        pull; the key's engine dtype is its storage dtype (the member test
        sees the column as stored, a DECIMAL's is not); and the
        build is more than a bare unfiltered scan, which under a
        foreign-key join holds every key there is."""
        build, node = join.children
        while isinstance(build, (P.DXchg, P.PProject)):
            build = build.children[0]
        if join.how not in ("inner", "semi") or (
                isinstance(build, P.PScan) and not build.skip_predicates
                and not build.key_filter):
            return join
        columns = list(join.probe_keys)
        while isinstance(node, (P.PSelect, P.PProject)):
            if isinstance(node, P.PProject):
                sources = [node.outputs.get(c) for c in columns]
                if not all(isinstance(e, Col) for e in sources):
                    return join
                columns = [e.name for e in sources]
            node = node.children[0]
        if isinstance(node, P.PScan) and node.distribution.is_partitioned:
            ctypes = map(self.cluster.table(node.table).schema.ctype, columns)
            if all(t.engine_dtype == t.dtype for t in ctypes):
                node.key_filter = tuple(columns)
                join.key_filter_scan = node
        return join

    def _co_partitioned(self, bdist, build_keys, pdist, probe_keys) -> bool:
        """Matching partitions co-located on their responsible node?

        True when both sides are hash-partitioned on exactly the join keys
        of tables with the same partition count -- VectorH's co-location
        invariant (the affinity map pins FK-related tables together).
        """
        if not bdist.keys or not pdist.keys:
            return False
        if tuple(bdist.keys) != tuple(build_keys):
            return False
        if tuple(pdist.keys) != tuple(probe_keys):
            return False
        bt, pt = bdist.co_location, pdist.co_location
        if bt is None and pt is None:
            # both sides came from plain DXchgHashSplits, which share the
            # hash-modulo-workers mapping -> co-located by construction
            return True
        if bt is None or pt is None:
            # table partitioning on one side, plain hash split on the
            # other: the partition->node mappings differ, NOT co-located
            return False
        if bt == pt:
            return True
        b_parts = self.cluster.table(bt).n_partitions
        p_parts = self.cluster.table(pt).n_partitions
        return b_parts == p_parts

    # ----------------------------------------------------------- aggregation

    def _rw_aggr(self, node: L.LAggr) -> Tuple[P.PhysNode, Tuple[str, ...]]:
        child, _ = self._rw(node.child)
        dist = child.distribution
        group = list(node.group_by)

        # already partitioned on a subset of the group keys: direct, local
        if (dist.is_partitioned and dist.keys
                and set(dist.keys) <= set(group)):
            out_dist = P.Distribution(P.PARTITIONED, tuple(dist.keys),
                                      co_location=dist.co_location)
            return P.PAggr(child, group, node.aggregates, "direct",
                           out_dist), ()

        if dist.kind in (P.MASTER,):
            return P.PAggr(child, group, node.aggregates, "direct",
                           dist), ()
        if dist.kind == P.REPLICATED:
            out = P.PAggr(child, group, node.aggregates, "direct",
                          P.Distribution(P.REPLICATED))
            return out, ()

        splittable, partial_specs, final_specs, post = split_aggregates(
            node.aggregates
        )
        if group:
            if self.flags.partial_aggr and splittable:
                partial = P.PAggr(child, group, partial_specs, "partial",
                                  P.Distribution(P.PARTITIONED))
                shuffled = P.DXHashSplit(partial, group)
                final = P.PAggr(shuffled, group, final_specs, "final",
                                shuffled.distribution)
                out: P.PhysNode = final
            else:
                shuffled = P.DXHashSplit(child, group)
                out = P.PAggr(shuffled, group, node.aggregates, "direct",
                              shuffled.distribution)
                post = None
            if post:
                outputs = {g: Col(g) for g in group}
                outputs.update(post)
                out = P.PProject(out, outputs)
            return out, ()
        # total aggregate
        if self.flags.partial_aggr and splittable:
            partial = P.PAggr(child, [], partial_specs, "partial",
                              P.Distribution(P.PARTITIONED))
            gathered = P.DXUnion(partial)
            out = P.PAggr(gathered, [], final_specs, "final",
                          gathered.distribution)
            if post:
                out = P.PProject(out, post)
            return out, ()
        gathered = P.DXUnion(child)
        return P.PAggr(gathered, [], node.aggregates, "direct",
                       gathered.distribution), ()


def split_aggregates(aggs: Sequence[AggSpec]):
    """Split aggregates into partial + final phases.

    Returns ``(splittable, partial_specs, final_specs, post_project)``.
    ``avg`` splits into sum+count partials recombined by a projection;
    partial counts are added as integers (``sum_counts``), so a count is
    int64 whichever way it was planned; ``count_distinct`` cannot be
    split (the rewriter reshuffles first).
    """
    partial: List[AggSpec] = []
    final: List[AggSpec] = []
    post: Dict[str, Expr] = {}
    for name, func, expr in aggs:
        if func == "count_distinct":
            return False, [], [], None
        if func == "sum":
            partial.append((name, "sum", expr))
            final.append((name, "sum", Col(name)))
            post[name] = Col(name)
        elif func == "count":
            partial.append((name, "count", expr))
            final.append((name, "sum_counts", Col(name)))
            post[name] = Col(name)
        elif func in ("min", "max"):
            partial.append((name, func, expr))
            final.append((name, func, Col(name)))
            post[name] = Col(name)
        elif func == "avg":
            partial.append((f"{name}__psum", "sum", expr))
            partial.append((f"{name}__pcnt", "count", expr))
            final.append((f"{name}__psum", "sum", Col(f"{name}__psum")))
            final.append((f"{name}__pcnt", "sum_counts",
                          Col(f"{name}__pcnt")))
            post[name] = Div(Col(f"{name}__psum"), Col(f"{name}__pcnt"))
        else:
            return False, [], [], None
    needs_post = any(func == "avg" for _, func, _ in aggs)
    return True, partial, final, (post if needs_post else None)
