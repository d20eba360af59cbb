"""Global tunables, scaled down from the paper's production defaults.

The paper's defaults (512KB blocks, 8-block groups, 1024-block chunks,
128MB+ HDFS blocks) are kept as named constants; tests and benchmarks use
smaller values so multi-block / multi-chunk behaviour is exercised with
laptop-sized data. All sizes are in bytes unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Config:
    """Configuration knobs for a VectorH cluster instance."""

    # --- storage (paper section 3, "Original Layout") ----------------------
    block_size: int = 512 * 1024  # compressed column block
    blocks_per_group: int = 8  # IO unit = block_size * blocks_per_group
    blocks_per_chunk: int = 1024  # block-chunk file granularity
    vector_size: int = 1024  # tuples per vector in the engine

    # --- HDFS ---------------------------------------------------------------
    hdfs_block_size: int = 128 * 1024 * 1024
    replication: int = 3  # R

    # --- YARN / workload management -----------------------------------------
    cores_per_node: int = 20
    memory_per_node_mb: int = 256 * 1024
    #: per-node byte budget for admitted queries (0 = unlimited): a query
    #: whose estimated footprint does not fit next to the live usage of
    #: the running queries waits in the admission queue
    workload_memory_budget_mb: int = 0
    #: cap on concurrently admitted queries (0 = derive from YARN core
    #: slots: slices * slice_cores, falling back to cores_per_node)
    workload_max_concurrent: int = 0
    #: charge simulated time from a deterministic per-tuple cost model
    #: instead of measured wall time (two identical runs then produce
    #: identical clocks -- required for reproducible concurrency runs)
    workload_deterministic: bool = False
    #: how many times the workload manager transparently re-dispatches a
    #: query whose worker died mid-flight before failing it
    query_retry_budget: int = 2

    # --- adaptive optimization ----------------------------------------------
    #: keep a CardinalityFeedbackStore on the cluster: rewriters consult
    #: observed fragment cardinalities before static stats
    adaptive_feedback: bool = True
    #: allow a running query to re-plan mid-flight when an exchange
    #: decision's live cardinality is >= replan_qerror_threshold off
    adaptive_replan: bool = True
    #: q-error (actual/estimate) that triggers a mid-query re-plan
    replan_qerror_threshold: float = 10.0
    #: per-query cap on mid-query re-plans
    replan_max_per_query: int = 2

    # --- continuous profiler (repro.obs.profiler) ---------------------------
    #: aggregate every finished query's operator/kernel profile into
    #: cumulative per-kind stats (vh$operator_stats / vh$hot_paths)
    profiler_enabled: bool = True
    #: default row count of the vh$hot_paths top-k view
    profiler_top_k: int = 20

    # --- flight recorder (repro.obs.monitor) --------------------------------
    #: create a FlightRecorder on the cluster (sampler + alert engine +
    #: query log), ticking from the workload manager's round hooks
    monitor_enabled: bool = True
    #: simulated seconds between metric-history samples (0 = every round)
    monitor_cadence_s: float = 1e-4
    #: retained samples before ring compaction halves the resolution
    monitor_retention: int = 256
    #: overflow downsampling: "auto" (counters last, gauges max) or a
    #: forced "last" / "max" / "sum"
    monitor_downsample: str = "auto"
    #: cluster event log retention (0 = keep everything, as tests expect)
    event_log_retention: int = 0
    #: query-log records kept (0 = keep everything)
    query_log_retention: int = 0
    #: admission_queue_depth >= this raises the admission_backlog alert...
    alert_queue_depth: float = 1.0
    #: ...once sustained this many simulated seconds (0 = immediately)
    alert_queue_window_s: float = 0.0
    #: query_wait_seconds p95 above this raises query_wait_p95
    alert_wait_p95_s: float = 0.25
    #: fraction of workload_memory_budget_mb that raises memory_watermark
    alert_memory_fraction: float = 0.9
    #: replans_total per sim-second that raises replan_storm (0 = off)
    alert_replan_rate: float = 0.0

    # --- serving (repro.server) ---------------------------------------------
    #: result-set cache entries at the server frontend (0 disables); keys
    #: are SQL text + the snapshot epochs of every referenced table, so a
    #: hit is always bit-identical to a cold run at the same epoch
    server_result_cache_entries: int = 256
    #: tenant queue depth / core quota ratio that raises the
    #: tenant_quota_saturated alert (0 = rule disabled)
    alert_tenant_saturation: float = 1.0
    #: ...once sustained this many simulated seconds (0 = immediately)
    alert_tenant_window_s: float = 0.0

    # --- chaos (fault injection) --------------------------------------------
    #: seed for the chaos controller's private RNG; the same seed yields a
    #: bit-identical fault schedule, event log and invariant report
    chaos_seed: int = 0

    # --- PDT / transactions (paper section 6) --------------------------------
    write_pdt_flush_threshold: int = 4096  # updates before Write->Read move
    pdt_propagate_threshold: int = 16384  # updates before update propagation
    pdt_propagate_fraction: float = 0.10  # in-memory tuple fraction trigger

    # --- network ------------------------------------------------------------
    mpi_message_size: int = 256 * 1024  # minimum for good MPI throughput

    # --- misc ----------------------------------------------------------------
    seed: int = 20160626  # SIGMOD'16 started June 26
    extra: dict = field(default_factory=dict)

    def scaled_for_tests(self) -> "Config":
        """A copy with tiny block/chunk sizes so tests hit all code paths."""
        return Config(
            block_size=16 * 1024,
            blocks_per_group=2,
            blocks_per_chunk=8,
            vector_size=128,
            hdfs_block_size=64 * 1024,
            replication=3,
            cores_per_node=4,
            memory_per_node_mb=4096,
            write_pdt_flush_threshold=64,
            pdt_propagate_threshold=256,
            mpi_message_size=4 * 1024,
            seed=self.seed,
        )


DEFAULT_CONFIG = Config()
