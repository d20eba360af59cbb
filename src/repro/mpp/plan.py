"""Distributed physical plan nodes.

Each node carries a *distribution* the rewriter derived:

* ``partitioned`` -- one stream per worker node, optionally hash-partitioned
  on a key set (with the partition->node mapping, which the paper added to
  the structural properties to stay correct when responsibilities move);
* ``replicated`` -- the full relation available on every worker;
* ``master`` -- a single stream at the session master.

Exchange nodes are the only places data moves between distributions.
The module ends with the plan contract (:class:`QueryPlan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.exchange import STREAMING
from repro.engine.expressions import Expr, Param, bound_value
from repro.engine.operators import AggSpec

PARTITIONED = "partitioned"
REPLICATED = "replicated"
MASTER = "master"


@dataclass
class Distribution:
    """Structural property of a physical node's output."""

    kind: str  # partitioned | replicated | master
    keys: Tuple[str, ...] = ()  # hash-partitioning keys, if any
    co_location: Optional[str] = None  # table whose partition map we follow

    @property
    def is_partitioned(self) -> bool:
        return self.kind == PARTITIONED


class PhysNode:
    """Base physical node."""

    label = "Phys"

    def __init__(self, children: Sequence["PhysNode"],
                 distribution: Distribution):
        self.children: List[PhysNode] = list(children)
        self.distribution = distribution

    def describe(self) -> str:
        return self.label

    def walk(self):
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def header(self) -> str:
        """``describe()  <kind on keys>``: how every rendering of the plan
        (this one, EXPLAIN, EXPLAIN ANALYZE) starts this node's line."""
        dist = self.distribution
        on = f" on {','.join(dist.keys)}" if dist.keys else ""
        return f"{self.describe()}  <{dist.kind}{on}>"

    def pretty(self, indent: int = 0, suffix=lambda node: "") -> str:
        """The subtree, a line per node: its header plus ``suffix(node)``,
        whose own further lines are indented with the node."""
        text = self.header() + suffix(self)
        lines = ["  " * indent + line for line in text.split("\n")]
        for child in self.children:
            lines.append(child.pretty(indent + 1, suffix))
        return "\n".join(lines)


class PScan(PhysNode):
    label = "MScan"

    def __init__(self, table: str, columns: List[str],
                 skip_predicates, distribution: Distribution):
        super().__init__((), distribution)
        self.table = table
        self.columns = columns
        self.skip_predicates = list(skip_predicates)
        #: columns of this scan a join above it tests against its finished
        #: build's key set (:attr:`PHashJoin.key_filter_scan` is the link);
        #: empty when the rewriter could not prove that legal
        self.key_filter: Tuple[str, ...] = ()
        #: the sorted pids the scan's ``=`` literals on the partition key
        #: can reach; None when it reads every partition
        self.partitions: Optional[Tuple[int, ...]] = None

    def describe(self):
        return f"MScan[{self.table}]"

    def header(self):
        text = super().header()
        if self.key_filter:
            text += f"  key-filter[{','.join(self.key_filter)}]"
        if self.partitions is not None:
            text += f"  partitions[{','.join(map(str, self.partitions))}]"
        return text


#: what :func:`reached_partitions` gives a template scan whose partition key
#: ``=``/``in`` slots fix: the partitions :meth:`QueryPlan.bind` finds
BOUND_AT_EXECUTE = "bound at execute"


def reached_partitions(table, triples):
    """The partitions a scan of ``table`` with these ``(col, op, value)``
    triples reads, for the rewriter and :meth:`QueryPlan.bind` alike:
    when ``=``/``in`` triples fix every partition-key column, the sorted
    pids their values hash to (:meth:`StoredTable.reached_partitions`),
    else None for every partition. Where a slot ``$N`` is among them the
    pids are not known yet: :data:`BOUND_AT_EXECUTE` when slots and
    literals fix every key column, None when they do not."""
    if table.is_replicated:
        return None
    key = table.schema.partition_key
    # plain loops: a scan without ``=`` or ``in`` on the key makes no call
    for col, op, _ in triples:
        if op in ("=", "in") and col in key:
            break
    else:
        return None
    if _has_slot(triples):
        fixed = {col for col, op, _ in triples if op in ("=", "in")}
        return BOUND_AT_EXECUTE if fixed.issuperset(key) else None
    return table.reached_partitions(triples)


def _has_slot(triples) -> bool:
    """Does a slot ``$N`` stand among the values (an ``in`` list's too)?"""
    return any(isinstance(v, Param) for _, op, value in triples
               for v in (value if op == "in" else (value,)))


class PSelect(PhysNode):
    label = "Select"

    def __init__(self, child: PhysNode, predicate: Expr):
        super().__init__([child], child.distribution)
        self.predicate = predicate

    def describe(self):
        return f"Select[{self.predicate!r}]"


class PProject(PhysNode):
    label = "Project"

    def __init__(self, child: PhysNode, outputs: Dict[str, Expr]):
        super().__init__([child], child.distribution)
        self.outputs = outputs

    def describe(self):
        return f"Project[{', '.join(self.outputs)}]"


class PAggr(PhysNode):
    label = "Aggr"

    def __init__(self, child: PhysNode, group_by, aggregates: List[AggSpec],
                 phase: str, distribution: Distribution):
        super().__init__([child], distribution)
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.phase = phase  # direct | partial | final

    def describe(self):
        keys = ",".join(self.group_by) or "total"
        return f"Aggr({self.phase})[{keys}]"


class PHashJoin(PhysNode):
    label = "HashJoin"

    def __init__(self, build: PhysNode, probe: PhysNode,
                 build_keys, probe_keys, how: str,
                 build_payload, distribution: Distribution):
        super().__init__([build, probe], distribution)
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.how = how
        self.build_payload = build_payload
        #: the probe-side scan whose rows this join's build keys filter
        self.key_filter_scan: Optional[PScan] = None

    def describe(self):
        return (f"HashJoin({self.how})"
                f"[{','.join(self.probe_keys)}={','.join(self.build_keys)}]")


class PMergeJoin(PhysNode):
    label = "MergeJoin"

    def __init__(self, left: PhysNode, right: PhysNode,
                 left_key: str, right_key: str, distribution: Distribution):
        super().__init__([left, right], distribution)
        self.left_key = left_key
        self.right_key = right_key

    def describe(self):
        return f"MergeJoin[{self.left_key}={self.right_key}]"


class PSort(PhysNode):
    label = "Sort"

    def __init__(self, child: PhysNode, keys, ascending):
        super().__init__([child], child.distribution)
        self.keys = list(keys)
        self.ascending = ascending

    def describe(self):
        return f"Sort[{','.join(self.keys)}]"


class PTopN(PhysNode):
    label = "TopN"

    def __init__(self, child: PhysNode, keys, n: int, ascending,
                 phase: str):
        super().__init__([child], child.distribution)
        self.keys = list(keys)
        self.n = n
        self.ascending = ascending
        self.phase = phase  # partial | final

    def describe(self):
        return f"TopN({self.phase})[{','.join(self.keys)}; {self.n}]"


class PUnionAll(PhysNode):
    label = "UnionAll"

    def __init__(self, children, distribution: Distribution):
        super().__init__(children, distribution)


class PWindow(PhysNode):
    label = "Window"

    def __init__(self, child: PhysNode, partition_by, order_by, functions,
                 ascending, distribution: Distribution):
        super().__init__([child], distribution)
        self.partition_by = list(partition_by)
        self.order_by = list(order_by)
        self.functions = list(functions)
        self.ascending = ascending

    def describe(self):
        names = ",".join(n for n, _, _ in self.functions)
        return f"Window[{names}; partition by {','.join(self.partition_by) or '-'}]"


class PLimit(PhysNode):
    label = "Limit"

    def __init__(self, child: PhysNode, n: int):
        super().__init__([child], child.distribution)
        self.n = n

    def describe(self):
        return f"Limit[{self.n}]"


# ---------------------------------------------------------------------------
# Exchanges: the only data movement points
# ---------------------------------------------------------------------------

class DXchg(PhysNode):
    """Base of the exchange nodes: the executor turns each one into a
    sender/receiver operator pair streaming through DXchg channels."""


class DXUnion(DXchg):
    """Gather all worker streams at the session master."""

    label = "DXchgUnion"

    def __init__(self, child: PhysNode):
        super().__init__([child], Distribution(MASTER))


class DXHashSplit(DXchg):
    """Repartition by hash of ``keys`` across all workers (all-to-all).

    When ``align_with`` names a table, rows are routed with *that table's*
    partition function and responsibility map instead of a plain
    hash-modulo-workers -- this is the partition->node mapping the paper
    added to the partitioning property so that a reshuffled side really
    co-locates with a table-partitioned side.
    """

    label = "DXchgHashSplit"

    def __init__(self, child: PhysNode, keys, align_with: str = None):
        super().__init__(
            [child],
            Distribution(PARTITIONED, tuple(keys), co_location=align_with),
        )
        self.keys = list(keys)
        self.align_with = align_with

    def describe(self):
        suffix = f" ~{self.align_with}" if self.align_with else ""
        return f"DXchgHashSplit[{','.join(self.keys)}{suffix}]"


class DXBroadcast(DXchg):
    """Replicate a (small) relation to every worker."""

    label = "DXchgBroadcast"

    def __init__(self, child: PhysNode):
        super().__init__([child], Distribution(REPLICATED))


# ---------------------------------------------------------------------------
# The plan contract: what planning hands to execution
# ---------------------------------------------------------------------------

def qerror(actual: float, estimated: float) -> float:
    """``max(actual/est, est/actual)``, both clamped to one row."""
    a = max(float(actual), 1.0)
    e = max(float(estimated), 1.0)
    return max(a / e, e / a)


@dataclass
class NodeEstimate:
    """Planner annotation for one physical node's output cardinality."""

    signature: Optional[str]
    rows: float
    source: str  # "static" | "feedback"

    def qerror(self, actual: float) -> float:
        return qerror(actual, self.rows)


@dataclass
class ExchangeDecision:
    """One cost-based build-movement choice, with enough context to
    re-evaluate it against live cardinalities mid-query."""

    node: PhysNode  # the DXchg that moves the build side
    signature: Optional[str]  # fragment signature of the build subtree
    choice: str  # "broadcast" | "repartition"
    estimated: float  # estimated build rows at plan time
    probe_move_rows: float  # rows the alternative reshuffle moves extra
    n_workers: int


@dataclass
class RewriterFlags:
    """How a query is planned and run: the rewriter's rule toggles (all on
    in production; benches turn them off) and the DXchg schedule."""

    local_join: bool = True
    replicate_build: bool = True
    partial_aggr: bool = True
    merge_join: bool = True
    #: DXchg schedule (paper section 5): ``"streaming"`` pipelines the
    #: senders; ``"materialize"`` is stop-and-go, same bytes/messages
    exchange_mode: str = STREAMING
    #: one DXchg buffer per destination node, else one per core
    thread_to_node: bool = True


@dataclass
class QueryPlan:
    """A planned query: physical tree + cardinality/cost annotations.

    Built by :meth:`ParallelRewriter.plan` and the only thing
    :meth:`~repro.mpp.executor.MppExecutor.prepare` accepts; the resulting
    :class:`~repro.mpp.executor.QueryRun` watches the recorded decisions
    and re-plans when one is proven wrong mid-query. Tests that hand-build a
    physical tree wrap it as ``QueryPlan(logical=None, root=tree)``; such
    a plan carries no decisions, so it is never re-planned. ``flags`` says
    how it was planned and how it runs; a re-plan keeps them.

    A prepared statement's plan is a *template*: its literals are slots
    ``$N`` (:class:`~repro.engine.expressions.Param`), and :meth:`bind`
    makes the plan one Execute runs. ``tables`` (the table object each
    scan was planned against) and ``feedback`` (every feedback entry the
    rewriter read, None where it found none) say when the template is
    stale; ``params`` are the values a bound plan was made with, and a
    mid-query re-plan binds them into the re-planned template.
    """

    logical: object
    root: PhysNode
    annotations: Dict[PhysNode, NodeEstimate] = field(default_factory=dict)
    decisions: List[ExchangeDecision] = field(default_factory=list)
    flags: RewriterFlags = field(default_factory=RewriterFlags)
    tables: Dict[str, object] = field(default_factory=dict)
    feedback: Dict[str, Optional[float]] = field(default_factory=dict)
    params: Tuple[object, ...] = ()

    def bind(self, params: Sequence[object]) -> "QueryPlan":
        """The plan of one Execute, in one walk over the template's tree:
        every node copied, every slot ``$N`` in a Select, Project, Aggr
        or scan triple the literal ``params[N-1]``, a scan's
        ``partitions`` found from its bound triples
        (:func:`reached_partitions`), annotations and decisions re-keyed
        to the copies. A slot without a value raises
        :class:`~repro.common.errors.PlanError`; the template is left as
        it is."""
        params = tuple(params)
        copies: Dict[PhysNode, PhysNode] = {}
        root = _bound(self.root, params, self.tables, copies)
        return QueryPlan(
            logical=self.logical, root=root,
            annotations={copies[node]: est
                         for node, est in self.annotations.items()},
            decisions=[replace(d, node=copies[d.node])
                       for d in self.decisions],
            flags=self.flags, tables=self.tables, feedback=self.feedback,
            params=params)

    def pretty(self) -> str:
        """Plan rendering with per-node estimates (``(fb)`` marks
        feedback-backed numbers) -- what EXPLAIN prints."""
        def estimate(node: PhysNode) -> str:
            ann = self.annotations.get(node)
            if ann is None:
                return ""
            fb = "(fb)" if ann.source == "feedback" else ""
            return f"  est={ann.rows:.0f}{fb}"

        return self.root.pretty(suffix=estimate)


def _bound(node: PhysNode, params, tables, copies) -> PhysNode:
    """A copy of ``node``'s subtree with its slots bound (QueryPlan.bind)."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__)
    new.children = [_bound(c, params, tables, copies) for c in node.children]
    if isinstance(node, PSelect):
        new.predicate = node.predicate.bind(params)
    elif isinstance(node, PProject):
        new.outputs = {name: expr.bind(params)
                       for name, expr in node.outputs.items()}
    elif isinstance(node, PAggr):
        new.aggregates = [(name, func, None if expr is None
                           else expr.bind(params))
                          for name, func, expr in node.aggregates]
    elif isinstance(node, PScan):
        if _has_slot(node.skip_predicates):
            new.skip_predicates = [(col, op, bound_value(v, params))
                                   for col, op, v in node.skip_predicates]
            new.partitions = reached_partitions(tables[node.table],
                                                new.skip_predicates)
    elif isinstance(node, PHashJoin) and node.key_filter_scan is not None:
        # the scan lies below the join, so its copy is made already
        new.key_filter_scan = copies[node.key_filter_scan]
    copies[node] = new
    return new


class ReplanSignal(Exception):
    """Raised by an exchange watcher through the generator stack when a
    mid-query cost flip is certain; caught by :meth:`QueryRun.step`."""

    def __init__(self, decision: ExchangeDecision, actual: float):
        super().__init__(
            f"{decision.choice} build observed {actual:.0f} rows "
            f"vs {decision.estimated:.0f} estimated")
        self.decision = decision
        self.actual = actual
