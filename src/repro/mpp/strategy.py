"""The plan contract: what planning hands to execution.

Planning produces an immutable :class:`QueryPlan` -- the physical tree
plus per-node cardinality annotations and the exchange decisions the
cost model took. It is the only thing
:meth:`~repro.mpp.executor.MppExecutor.prepare` accepts; the resulting
:class:`~repro.mpp.executor.QueryRun` watches the recorded decisions
and re-plans when one is proven wrong mid-query (see its docstring for
the protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mpp import plan as P


@dataclass
class NodeEstimate:
    """Planner annotation for one physical node's output cardinality."""

    signature: Optional[str]
    rows: float
    source: str  # "static" | "feedback"


@dataclass
class ExchangeDecision:
    """One cost-based build-movement choice, with enough context to
    re-evaluate it against live cardinalities mid-query."""

    node: P.PhysNode  # the DXchg that moves the build side
    signature: Optional[str]  # fragment signature of the build subtree
    choice: str  # "broadcast" | "repartition"
    estimated: float  # estimated build rows at plan time
    probe_move_rows: float  # rows the alternative reshuffle moves extra
    n_workers: int


@dataclass
class QueryPlan:
    """A planned query: physical tree + cardinality/cost annotations.

    Built by :meth:`ParallelRewriter.plan`. Tests that hand-build a
    physical tree wrap it as ``QueryPlan(logical=None, root=tree)``; such
    a plan carries no decisions, so it is never re-planned.
    """

    logical: object
    root: P.PhysNode
    annotations: Dict[P.PhysNode, NodeEstimate] = field(default_factory=dict)
    decisions: List[ExchangeDecision] = field(default_factory=list)
    flags: object = None

    def pretty(self) -> str:
        """Plan rendering with per-node estimates (``(fb)`` marks
        feedback-backed numbers) -- what EXPLAIN prints."""
        lines: List[str] = []

        def emit(node: P.PhysNode, indent: int) -> None:
            pad = "  " * indent
            dist = node.distribution
            head = (f"{pad}{node.describe()}  <{dist.kind}"
                    + (f" on {','.join(dist.keys)}" if dist.keys else "")
                    + ">")
            ann = self.annotations.get(node)
            if ann is not None:
                head += f"  est={ann.rows:.0f}"
                if ann.source == "feedback":
                    head += "(fb)"
            lines.append(head)
            for child in node.children:
                emit(child, indent + 1)

        emit(self.root, 0)
        return "\n".join(lines)


class ReplanSignal(Exception):
    """Raised by an exchange watcher through the generator stack when a
    mid-query cost flip is certain; caught by :meth:`QueryRun.step`."""

    def __init__(self, decision: ExchangeDecision, actual: float):
        super().__init__(
            f"{decision.choice} build observed {actual:.0f} rows "
            f"vs {decision.estimated:.0f} estimated")
        self.decision = decision
        self.actual = actual
