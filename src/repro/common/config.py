"""Global tunables, scaled down from the paper's production defaults.

The paper's defaults (512KB blocks, 1024-block chunks, 128MB+ HDFS
blocks) are kept as named constants; tests and benchmarks use
smaller values so multi-block / multi-chunk behaviour is exercised with
laptop-sized data. All sizes are in bytes unless noted.

A field lives here only if a test or a tracked benchmark varies it
(DESIGN.md "Configuration" names who). Everything else -- alert
thresholds, ring capacities, re-plan limits, the profiler's top-k -- is
a module constant next to its single reader, so it has one default and
no plumbing; ``tests/test_config.py`` keeps it that way.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Config:
    """Configuration knobs for a VectorH cluster instance."""

    # --- storage (paper section 3, "Original Layout") ----------------------
    block_size: int = 512 * 1024  # compressed column block
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
    #: decision's live cardinality is far off its estimate
    adaptive_replan: bool = True

    # --- serving (repro.server) ---------------------------------------------
    #: result-set cache entries at the server frontend (0 disables); keys
    #: are SQL text + the snapshot epochs of every referenced table, so a
    #: hit is always bit-identical to a cold run at the same epoch
    server_result_cache_entries: int = 256

    # --- PDT / transactions (paper section 6) --------------------------------
    write_pdt_flush_threshold: int = 4096  # updates before Write->Read move
    pdt_propagate_threshold: int = 16384  # updates before update propagation

    # --- network ------------------------------------------------------------
    mpi_message_size: int = 256 * 1024  # minimum for good MPI throughput

    # --- misc ----------------------------------------------------------------
    seed: int = 20160626  # SIGMOD'16 started June 26

    def scaled_for_tests(self) -> "Config":
        """A copy with tiny block/chunk sizes so tests hit all code paths."""
        return Config(
            block_size=16 * 1024,
            blocks_per_chunk=8,
            vector_size=128,
            hdfs_block_size=64 * 1024,
            cores_per_node=4,
            memory_per_node_mb=4096,
            write_pdt_flush_threshold=64,
            pdt_propagate_threshold=256,
            mpi_message_size=4 * 1024,
            seed=self.seed,
        )


DEFAULT_CONFIG = Config()
