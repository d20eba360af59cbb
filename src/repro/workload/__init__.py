"""Workload management: concurrent, admission-controlled queries.

Two parts that share nothing but the query records:

* :class:`WorkloadManager` (:mod:`repro.workload.manager`) -- the run
  loop: one cluster-wide :class:`~repro.engine.exchange.StreamScheduler`
  on the shared :class:`~repro.obs.SimClock` and one cluster-wide
  :class:`~repro.engine.exchange.MemoryMeter`; admitted queries are
  suspended :class:`~repro.mpp.executor.QueryRun`\\ s, advanced one turn
  each per global round. How a query runs is its plan's flags.
* :class:`AdmissionPolicy` (:mod:`repro.workload.admission`) -- when a
  query starts: per-tenant FIFO queues (:class:`TenantState`) under
  integer stride (WFQ) scheduling, tenant core quotas, and the cluster's
  core slots and per-node memory budget.

A client is a server connection (:mod:`repro.server`); the manager
records its id as each query's ``session``.
"""

from repro.workload.admission import (
    DEFAULT_TENANT,
    STRIDE1,
    AdmissionPolicy,
    TenantState,
    estimate_query_memory,
)
from repro.workload.manager import QueryRecord, WorkloadManager

__all__ = [
    "AdmissionPolicy",
    "DEFAULT_TENANT",
    "QueryRecord",
    "STRIDE1",
    "TenantState",
    "WorkloadManager",
    "estimate_query_memory",
]
