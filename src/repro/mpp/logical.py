"""Logical query plans: what the SQL front-end / plan builders produce.

A logical plan is serial and distribution-free; the Parallel Rewriter turns
it into a distributed physical plan, and the baseline row engine interprets
the *same* logical plan tuple-at-a-time -- keeping system comparisons
apples-to-apples at the plan level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.expressions import (
    And, Between, Col, Const, Expr, InList, Param)
from repro.engine.operators import AggSpec

#: what names a ``vh$`` system table (rows made on read: nothing to skip)
SYSTEM_TABLE_PREFIX = "vh$"


class LogicalPlan:
    """Base logical node."""

    children: tuple = ()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class LScan(LogicalPlan):
    """Scan a stored table.

    ``skip_predicates`` are conjunctive ``(column, op, literal)`` triples
    the storage layer skips blocks and filters rows on, set by
    :func:`derive_scan_triples` only (the selections keep the filter).
    """

    table: str
    columns: List[str]
    skip_predicates: List[Tuple[str, str, object]] = field(
        default_factory=list, init=False)

    def __post_init__(self):
        self.children = ()


@dataclass
class LSelect(LogicalPlan):
    child: LogicalPlan
    predicate: Expr

    def __post_init__(self):
        self.children = (self.child,)


@dataclass
class LProject(LogicalPlan):
    child: LogicalPlan
    outputs: Dict[str, Expr]

    def __post_init__(self):
        self.children = (self.child,)


@dataclass
class LJoin(LogicalPlan):
    """Join with explicit build (right-ish, usually smaller) side.

    ``probe`` is streamed, ``build`` is materialized. ``how`` is one of
    inner/left/semi/anti (left preserves probe rows and adds ``__matched``).
    """

    build: LogicalPlan
    probe: LogicalPlan
    build_keys: List[str]
    probe_keys: List[str]
    how: str = "inner"
    build_payload: Optional[List[str]] = None

    def __post_init__(self):
        self.children = (self.build, self.probe)


@dataclass
class LAggr(LogicalPlan):
    child: LogicalPlan
    group_by: List[str]
    aggregates: List[AggSpec]

    def __post_init__(self):
        self.children = (self.child,)


@dataclass
class LSort(LogicalPlan):
    child: LogicalPlan
    keys: List[str]
    ascending: Optional[List[bool]] = None

    def __post_init__(self):
        self.children = (self.child,)


@dataclass
class LTopN(LogicalPlan):
    child: LogicalPlan
    keys: List[str]
    n: int
    ascending: Optional[List[bool]] = None

    def __post_init__(self):
        self.children = (self.child,)


@dataclass
class LLimit(LogicalPlan):
    child: LogicalPlan
    n: int

    def __post_init__(self):
        self.children = (self.child,)


@dataclass
class LUnionAll(LogicalPlan):
    """Concatenation of compatible inputs (same output columns)."""

    inputs: List[LogicalPlan]

    def __post_init__(self):
        self.children = tuple(self.inputs)


def rollup(child_factory, keys: Sequence[str], aggregates,
           placeholders: Dict[str, object]) -> LogicalPlan:
    """Build a ROLLUP as a union of aggregations (paper section 1 names
    ROLL UP / GROUPING SETS among the analytical SQL VectorH serves).

    ``child_factory()`` must return a fresh logical subtree per grouping
    level (logical nodes are single-use); level *i* groups by the first
    ``len(keys)-i`` keys, with dropped keys replaced by their placeholder
    value, down to the grand total.
    """
    levels = []
    for depth in range(len(keys), -1, -1):
        group = list(keys[:depth])
        aggr = LAggr(child_factory(), group, list(aggregates))
        outputs = {}
        for key in keys:
            outputs[key] = Col(key) if key in group \
                else Const(placeholders[key])
        for name, _, _ in aggregates:
            outputs[name] = Col(name)
        outputs["__grouping_level"] = Const(depth)
        levels.append(LProject(aggr, outputs))
    return LUnionAll(levels)


def grouping_sets(child_factory, sets: Sequence[Sequence[str]],
                  all_keys: Sequence[str], aggregates,
                  placeholders: Dict[str, object]) -> LogicalPlan:
    """GROUPING SETS as a union of one aggregation per requested set."""
    branches = []
    for group in sets:
        aggr = LAggr(child_factory(), list(group), list(aggregates))
        outputs = {}
        for key in all_keys:
            outputs[key] = Col(key) if key in group \
                else Const(placeholders[key])
        for name, _, _ in aggregates:
            outputs[name] = Col(name)
        branches.append(LProject(aggr, outputs))
    return LUnionAll(branches)


@dataclass
class LWindow(LogicalPlan):
    """Window functions: ``fn(...) OVER (PARTITION BY ... ORDER BY ...)``.

    ``functions`` are ``(output name, function, input expr or None)``;
    see :class:`repro.engine.window.Window` for supported functions.
    """

    child: LogicalPlan
    partition_by: List[str]
    order_by: List[str]
    functions: List[Tuple[str, str, Optional[Expr]]]
    ascending: Optional[List[bool]] = None

    def __post_init__(self):
        self.children = (self.child,)


# -- one predicate form: a scan's skip triples, derived from the plan --------

#: a comparison's op seen from a column on its right (``5 < a``: ``a > 5``)
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def predicate_triples(predicate: Expr) -> List[Tuple[str, str, object]]:
    """The ``(column, op, literal)`` triples of ``predicate``'s sargable
    ``AND`` conjuncts: ``Col op Const|Param`` (flipped when the column is
    on the right), a ``BETWEEN`` as ``>=`` and ``<=``, an ``IN`` list as
    one ``("in", values)``. A slot ``$N`` stands where its literal will."""
    if isinstance(predicate, And):
        return (predicate_triples(predicate.left)
                + predicate_triples(predicate.right))
    if isinstance(predicate, (Between, InList)) \
            and isinstance(predicate.child, Col):
        name = predicate.child.name
        if isinstance(predicate, InList):
            return [(name, "in", tuple(predicate.values))]
        return [(name, ">=", predicate.low), (name, "<=", predicate.high)]
    symbol = getattr(predicate, "symbol", None)  # a comparison's, if any
    if symbol in _FLIPPED:
        for op, col, value in (
                (symbol, predicate.left, predicate.right),
                (_FLIPPED[symbol], predicate.right, predicate.left)):
            if isinstance(col, Col) and isinstance(value, (Const, Param)):
                value = value.value if isinstance(value, Const) else value
                return [(col.name, op, value)]
    return []


def output_columns(node: LogicalPlan) -> Set[str]:
    """The column names ``node``'s rows carry."""
    if isinstance(node, LScan):
        return set(node.columns)
    if isinstance(node, LProject):
        return set(node.outputs)
    if isinstance(node, LAggr):
        return set(node.group_by) | {name for name, _, _ in node.aggregates}
    if isinstance(node, LWindow):
        return output_columns(node.child) | {f[0] for f in node.functions}
    if isinstance(node, LJoin):
        return output_columns(node.probe) | _build_outputs(node)
    return output_columns(node.children[0])  # select, sort, limit, union


def _build_outputs(join: LJoin) -> Set[str]:
    if join.how in ("semi", "anti"):
        return set()
    build = (output_columns(join.build) if join.build_payload is None
             else set(join.build_payload))
    return build | {"__matched"} if join.how == "left" else build


def derive_scan_triples(plan: LogicalPlan) -> LogicalPlan:
    """A copy of ``plan`` whose scans carry the triples of the selections
    above them: through ``Col`` renames, to the one join side holding the
    column (never a left join's build side); aggregations, sorts, limits,
    windows and unions stop them; ``vh$`` tables take none."""
    return _derive(plan, [])


def _derive(node: LogicalPlan, triples: list) -> LogicalPlan:
    if isinstance(node, LScan):
        scan = LScan(node.table, node.columns)
        if not node.table.startswith(SYSTEM_TABLE_PREFIX):
            scan.skip_predicates = [t for t in triples
                                    if t[0] in node.columns]
        return scan
    if isinstance(node, LSelect):
        return _copy(node, child=_derive(
            node.child, predicate_triples(node.predicate) + triples))
    if isinstance(node, LProject):
        renamed = [(node.outputs[col].name, op, value)
                   for col, op, value in triples
                   if isinstance(node.outputs.get(col), Col)]
        return _copy(node, child=_derive(node.child, renamed))
    if isinstance(node, LJoin):
        probe, build = output_columns(node.probe), _build_outputs(node)
        only_build = build - probe if node.how == "inner" else set()
        return _copy(
            node, probe=_derive(node.probe,
                                [t for t in triples if t[0] in probe - build]),
            build=_derive(node.build,
                          [t for t in triples if t[0] in only_build]))
    if isinstance(node, LUnionAll):
        return _copy(node, inputs=[_derive(c, []) for c in node.inputs])
    return _copy(node, child=_derive(node.child, []))


def _copy(node: LogicalPlan, **fields) -> LogicalPlan:
    """``node`` with other children (``__post_init__`` lists them)."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__, **fields)
    new.__post_init__()
    return new
