"""Workload management: concurrent, admission-controlled queries.

The execution core used to be query-at-a-time: :meth:`VectorHCluster.query`
built a private stream scheduler, drove it to completion and returned.
This package refactors that control loop around *many* live queries:

* :class:`WorkloadManager` -- owns one cluster-wide
  :class:`~repro.engine.exchange.StreamScheduler` (on the shared
  :class:`~repro.obs.SimClock`) and one cluster-wide
  :class:`~repro.engine.exchange.MemoryMeter`; admitted queries are
  suspended :class:`~repro.mpp.executor.QueryRun`\\ s, advanced one turn
  each per global round.
* :class:`TenantState` -- one tenant's admission queue, weight,
  priority and core/memory quotas; tenants are scheduled against each
  other with deterministic integer stride (WFQ) scheduling, FIFO within
  each tenant.
* :class:`AdmissionController` -- decides whether the WFQ-selected
  candidate fits under the per-node core slots (from the YARN footprint
  dbAgent holds) and the per-node memory budget next to the live usage
  of the running queries.

A client is a server connection (:mod:`repro.server`); the manager
records its id as each query's ``session``.
"""

from repro.workload.manager import (
    DEFAULT_TENANT,
    STRIDE1,
    AdmissionController,
    QueryRecord,
    TenantState,
    WorkloadManager,
    estimate_query_memory,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_TENANT",
    "QueryRecord",
    "STRIDE1",
    "TenantState",
    "WorkloadManager",
    "estimate_query_memory",
]
