"""Trickle updates with Positional Delta Trees (paper sections 2 and 6).

Shows the full PDT lifecycle on an ordered (clustered) table:

* inserts/deletes/modifies buffered positionally in Trans-PDTs;
* snapshot isolation: a long-running reader keeps its snapshot while
  writers commit;
* optimistic concurrency control: a write-write conflict aborts;
* WAL durability and update propagation (tail flush vs full rewrite).

    python examples/trickle_updates.py
"""

import numpy as np

from repro.common.config import Config
from repro.common.types import DATE, INT64, STRING
from repro.cluster import VectorHCluster
from repro.common.errors import TransactionAborted
from repro.engine.expressions import Col
from repro.mpp.logical import LAggr, LScan
from repro.storage import Column, TableSchema


def count(cluster, trans=None):
    plan = LAggr(LScan("events", ["event_id"]), [],
                 [("n", "count", None)])
    return int(cluster.query(plan, trans=trans).batch.columns["n"][0])


def main():
    cluster = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    cluster.create_table(TableSchema(
        "events",
        [Column("event_id", INT64), Column("happened", DATE),
         Column("kind", STRING)],
        primary_key=("event_id",),
        clustered_on=("happened",),  # ordered table: all updates via PDTs
        partition_key=("event_id",), n_partitions=4,
    ))
    rng = np.random.default_rng(0)
    n = 20_000
    cluster.bulk_load("events", {
        "event_id": np.arange(n),
        "happened": np.sort(rng.integers(18_000, 19_000, n)).astype(np.int32),
        "kind": rng.choice(["click", "view", "buy"], n).astype(object),
    })
    print(f"loaded {count(cluster)} events (stored sorted on date)")

    # --- snapshot isolation ----------------------------------------------
    reader = cluster.begin()
    baseline = count(cluster, trans=reader)
    writer = cluster.begin()
    cluster.insert("events", {
        "event_id": np.arange(10**6, 10**6 + 500),
        "happened": rng.integers(18_000, 19_000, 500).astype(np.int32),
        "kind": np.array(["buy"] * 500, object),
    }, trans=writer, force_pdt=True)
    writer.commit()
    print(f"writer committed 500 inserts; "
          f"reader still sees {count(cluster, trans=reader)} "
          f"(began at {baseline}), everyone else {count(cluster)}")
    reader.abort()

    # --- optimistic concurrency control -----------------------------------
    a, b = cluster.begin(), cluster.begin()
    cluster.update_where("events", Col("event_id") == 7,
                         {"kind": Col("kind")}, trans=a)
    cluster.delete_where("events", Col("event_id") == 7, trans=b)
    a.commit()
    try:
        b.commit()
    except TransactionAborted as exc:
        print(f"write-write conflict detected as expected: {exc}")

    # --- PDT state and durability ------------------------------------------
    table = cluster.tables["events"]
    entries = sum(s.total_entries() for s in table.pdt)
    wal_bytes = sum(
        cluster.hdfs.file_size(cluster.wal.partition_wal_path("events", p))
        for p in range(4))
    print(f"PDT entries in RAM: {entries}; per-partition WALs hold "
          f"{wal_bytes} bytes")

    # --- update propagation ---------------------------------------------------
    stats = cluster.propagate_updates("events", force=True)
    print(f"update propagation: {stats['tail']} tail flushes, "
          f"{stats['full']} full rewrites")
    print(f"after propagation: {count(cluster)} events, "
          f"{sum(s.total_entries() for s in table.pdt)} PDT entries")
    dates = cluster.query(
        LScan("events", ["happened"])).batch.columns["happened"]
    # gathered per partition; check each partition stayed sorted
    for pid in range(4):
        img = table.scan_partition(pid, ["happened"]).columns["happened"]
        assert (np.diff(img) >= 0).all()
    print("every partition is still perfectly date-ordered")


if __name__ == "__main__":
    main()
