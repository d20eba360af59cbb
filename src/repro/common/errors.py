"""Exception hierarchy for the VectorH reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without accidentally swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class HdfsError(ReproError):
    """Raised by the simulated HDFS layer (missing file, bad append, ...)."""


class YarnError(ReproError):
    """Raised by the simulated YARN layer (no resources, bad container, ...)."""


class NetworkError(ReproError):
    """Raised by the MPI fabric layer."""


class NetworkTimeout(NetworkError):
    """A wire message timed out (chaos drop fault). Transient: the send
    path retries it under its :class:`~repro.common.retry.RetryPolicy`."""


class RetryBudgetExceeded(ReproError):
    """A retry policy spent its whole attempt budget on transient errors.

    Chains the last transient error as ``__cause__``.
    """


class DataLossError(ReproError):
    """Every replica of some table partition's data is on dead nodes.

    The message always starts with ``"data loss: "`` and names the
    affected table/partition; a ``cluster.data_lost`` event is emitted
    alongside.
    """


class SimulatedCrash(ReproError):
    """A chaos-injected node crash at a transaction injection point.

    Raised out of :meth:`TransactionManager.commit` when a fault plan
    arms a crash between 2PC phases; ``node`` names the victim. The
    driver is expected to hand the exception to
    :meth:`repro.chaos.ChaosController.handle_crash`, which fails the
    node over and resolves the in-doubt transaction it left behind.
    """

    def __init__(self, node: str, point: str):
        super().__init__(f"simulated crash of {node} at {point}")
        self.node = node
        self.point = point


class StorageError(ReproError):
    """Raised by the columnar storage layer (corrupt block, bad schema, ...)."""


class CompressionError(StorageError):
    """Raised when a block cannot be compressed or decompressed."""


class PlanError(ReproError):
    """Raised by the optimizer when no valid (distributed) plan exists."""


class ExecutionError(ReproError):
    """Raised by the query engine during operator execution."""


class TransactionAborted(ReproError):
    """Raised when optimistic concurrency control detects a conflict.

    Mirrors VectorH's behaviour: write-write conflicts detected during
    Trans-PDT serialization force the transaction to abort (paper section 6).
    """


class ConstraintViolation(TransactionAborted):
    """Raised when a unique-key or foreign-key constraint check fails."""


class SqlError(ReproError):
    """Raised by the SQL front-end (lex/parse/bind errors)."""


class QueryCancelled(ExecutionError):
    """Raised by ``gather()`` when the query was cancelled before finishing.

    Carries the query id and the cancel reason (``"cancelled"`` for an
    explicit :meth:`WorkloadManager.cancel`, ``"timeout"`` when the per-query
    deadline expired on the simulated clock).
    """

    def __init__(self, query_id: int, reason: str = "cancelled"):
        super().__init__(f"query {query_id} {reason}")
        self.query_id = query_id
        self.reason = reason


class QueryTimeout(QueryCancelled):
    """A query exceeded its ``timeout=`` budget on the simulated clock."""

    def __init__(self, query_id: int):
        super().__init__(query_id, "timeout")
