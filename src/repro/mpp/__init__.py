"""MPP layer: distributed plans, exchange operators, the Parallel Rewriter.

Shared-nothing parallelism in VectorH is encapsulated in Exchange
operators (Volcano style): DXchgUnion, DXchgHashSplit and DXchgBroadcast
redistribute tuple streams between worker nodes over (simulated) MPI while
every other operator stays parallelism-unaware. The Parallel Rewriter turns
a serial logical plan into a distributed physical plan, avoiding
communication at all cost: co-located partition-wise joins, replicated
build sides, and partial aggregation below the exchange (paper section 5).
"""

from repro.mpp.logical import (
    LAggr,
    LJoin,
    LLimit,
    LogicalPlan,
    LProject,
    LScan,
    LSelect,
    LSort,
    LTopN,
)
from repro.mpp.plan import (
    DXBroadcast,
    DXchg,
    DXHashSplit,
    DXUnion,
    PhysNode,
    QueryPlan,
)
from repro.mpp.feedback import CardinalityFeedbackStore
from repro.mpp.rewriter import ParallelRewriter, RewriterFlags
from repro.mpp.executor import MppExecutor, QueryResult

__all__ = [
    "LogicalPlan", "LScan", "LSelect", "LProject", "LJoin", "LAggr",
    "LSort", "LTopN", "LLimit",
    "PhysNode", "DXchg", "DXUnion", "DXHashSplit", "DXBroadcast",
    "ParallelRewriter", "RewriterFlags",
    "CardinalityFeedbackStore", "QueryPlan",
    "MppExecutor", "QueryResult",
]
