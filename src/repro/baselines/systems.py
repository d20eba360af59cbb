"""Competitor system profiles (paper section 8).

Each profile wires the row engine + a storage format with the
architectural properties the paper measured:

* **hive**   -- ORC, MinMax pushdown, multi-core (Tez), heavy per-stage
  container overhead, and delta-table updates merged by key.
* **impala** -- Parquet *without* MinMax use ("Impala does not do MinMax
  skipping at all") and single-core joins/aggregations.
* **sparksql** -- Parquet with MinMax, multi-core, moderate per-stage
  scheduling overhead.
* **hawq**   -- Parquet with MinMax, multi-core, the lightest overhead
  (the paper's fastest competitor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines.formats import OrcLikeTable, ParquetLikeTable
from repro.baselines.rowengine import RowEngineRunner
from repro.common.config import Config, DEFAULT_CONFIG
from repro.engine.batch import Batch
from repro.hdfs.cluster import HdfsCluster

#: keys used for Hive-style delta merging (lineitem has no declared PK)
DELTA_KEYS = {
    "orders": ("o_orderkey",),
    "lineitem": ("l_orderkey", "l_linenumber"),
}


@dataclass
class CompetitorProfile:
    name: str
    format_cls: type
    use_minmax: bool
    use_skipping: bool
    single_core_joins: bool
    stage_overhead: float
    supports_updates: bool = False


COMPETITORS: Dict[str, CompetitorProfile] = {
    "hive": CompetitorProfile("hive", OrcLikeTable, True, True, False,
                              stage_overhead=0.03, supports_updates=True),
    "impala": CompetitorProfile("impala", ParquetLikeTable, False, False,
                                True, stage_overhead=0.006),
    "sparksql": CompetitorProfile("sparksql", ParquetLikeTable, True, True,
                                  False, stage_overhead=0.015),
    "hawq": CompetitorProfile("hawq", ParquetLikeTable, True, True, False,
                              stage_overhead=0.003),
}


class CompetitorSystem:
    """One loaded competitor: format tables on HDFS + a row-engine runner."""

    def __init__(self, profile_name: str, hdfs: Optional[HdfsCluster] = None,
                 workers: int = 9, rows_per_group: int = 8192,
                 config: Config = DEFAULT_CONFIG):
        self.profile = COMPETITORS[profile_name]
        self.hdfs = hdfs or HdfsCluster(
            [f"bn{i}" for i in range(workers)], config
        )
        self.workers = workers
        self.rows_per_group = rows_per_group
        self.tables: Dict[str, object] = {}
        self.runner: Optional[RowEngineRunner] = None

    @property
    def name(self) -> str:
        return self.profile.name

    def load(self, data: Dict[str, Dict[str, np.ndarray]]) -> None:
        for table_name, columns in data.items():
            path = f"/baseline/{self.name}/{table_name}.{self.profile.format_cls.format_name}"
            if self.profile.format_cls is ParquetLikeTable:
                table = ParquetLikeTable(
                    self.hdfs, path, rows_per_group=self.rows_per_group,
                    use_minmax=self.profile.use_minmax,
                )
            else:
                table = OrcLikeTable(self.hdfs, path,
                                     rows_per_group=self.rows_per_group)
            table.write(columns)
            self.tables[table_name] = table
        self.runner = RowEngineRunner(
            self.tables,
            workers=self.workers,
            use_skipping=self.profile.use_skipping,
            single_core_joins=self.profile.single_core_joins,
            stage_overhead=self.profile.stage_overhead,
            delta_keys=DELTA_KEYS if self.profile.supports_updates else None,
        )

    def run(self, plan) -> Batch:
        return self.runner(plan)

    def simulated_seconds(self) -> float:
        return self.runner.simulated_seconds()

    def total_bytes(self) -> int:
        return sum(t.total_bytes() for t in self.tables.values())
