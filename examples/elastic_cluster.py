"""Elasticity and fault tolerance: YARN negotiation, preemption, failover.

Demonstrates sections 3-4 of the paper end to end:

1. dbAgent negotiates a worker set with YARN, preferring data locality;
2. the footprint grows and shrinks in slices of dummy containers; a
   higher-priority Spark job preempts VectorH, which adapts;
3. a node failure triggers min-cost-flow recomputation of the affinity
   map, policy-steered re-replication, responsibility reassignment and
   WAL replay -- with queries correct before, during and after.

    python examples/elastic_cluster.py
"""

import numpy as np

from repro.common.config import Config
from repro.common.types import INT64
from repro.cluster import VectorHCluster
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LJoin, LScan
from repro.storage import Column, TableSchema


def total_join_rows(cluster):
    plan = LAggr(
        LJoin(build=LScan("r", ["rk"]), probe=LScan("s", ["sk"]),
              build_keys=["rk"], probe_keys=["sk"]),
        [], [("n", "count", None)])
    return int(cluster.query(plan).batch.columns["n"][0])


def main():
    config = Config().scaled_for_tests()
    cluster = VectorHCluster(n_nodes=4, config=config,
                             yarn_queues={"default": 5, "prod": 9})
    print(f"negotiated worker set: {cluster.workers}")

    # co-partitioned tables R and S (the Figure-2 setup)
    for name, key in (("r", "rk"), ("s", "sk")):
        cluster.create_table(TableSchema(
            name, [Column(key, INT64), Column("v", INT64)],
            partition_key=(key,), n_partitions=12))
        cluster.bulk_load(name, {key: np.arange(5000),
                                 "v": np.zeros(5000, np.int64)})
    print("\npartition responsibility (R) -- matching S partitions are "
          "co-located:")
    for pid, node in enumerate(cluster.placement.owners("r")):
        assert node == cluster.responsible("s", pid)
        print(f"  partition {pid:2d} -> {node}")

    # --- elasticity ------------------------------------------------------
    agent = cluster.dbagent
    agent.on_footprint_change = lambda fp: print(f"  footprint now: {fp}")
    print("\ngrowing footprint by 3 slices:")
    agent.grow_footprint(3)

    print("\na high-priority Spark job arrives and preempts us on "
          f"{cluster.workers[0]}:")
    spark = cluster.rm.submit_application("spark-etl", "prod")
    cluster.rm.request_container(
        spark, cluster.workers[0],
        cores=config.cores_per_node,
        memory_mb=config.memory_per_node_mb,
    )
    print("renegotiating back toward the target:")
    cluster.rm.kill_application(spark.app_id)
    agent.negotiate_to_target(3)

    # --- failover -------------------------------------------------------
    before = total_join_rows(cluster)
    print(f"\nco-located join result before failure: {before} rows")
    victim = cluster.workers[-1]
    print(f"killing {victim} ...")
    info = cluster.fail_node(victim)
    print(f"  new worker set:      {info['workers']}")
    print(f"  re-replicated files: {info['rereplicated_files']}")
    print(f"  moved partitions:    {info['moved_partitions']}")
    print(f"  WAL bytes replayed:  {info['wal_replayed_bytes']}")
    after = total_join_rows(cluster)
    print(f"join result after failover: {after} rows "
          f"({'OK' if after == before else 'MISMATCH'})")
    deleted = cluster.delete_where("r", Col("rk") < 100)
    print(f"updates still work: deleted {deleted} rows")


if __name__ == "__main__":
    main()
