"""Shared benchmark fixtures.

Scale is controlled by ``REPRO_SF`` (default 0.01 ~ 60k lineitem rows);
the 9-worker layout mirrors the paper's evaluation cluster. Each bench
prints the table/figure it regenerates; reports are also written under
``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.common.config import Config
from repro.cluster import VectorHCluster
from repro.tpch import generate_tpch, tpch_schemas
from repro.tpch.schema import LOAD_ORDER

SCALE_FACTOR = float(os.environ.get("REPRO_SF", "0.01"))
N_WORKERS = int(os.environ.get("REPRO_WORKERS", "9"))
N_PARTITIONS = int(os.environ.get("REPRO_PARTITIONS", "18"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_config() -> Config:
    config = Config()
    config.block_size = 32 * 1024
    config.blocks_per_chunk = 64
    config.hdfs_block_size = 256 * 1024
    config.cores_per_node = 20
    return config


@pytest.fixture(scope="session")
def tpch_data():
    return generate_tpch(SCALE_FACTOR, seed=19920101)


@pytest.fixture(scope="session")
def vectorh(tpch_data):
    cluster = VectorHCluster(n_nodes=N_WORKERS, config=bench_config())
    schemas = tpch_schemas(n_partitions=N_PARTITIONS)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, tpch_data[name])
    return cluster


def write_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text)
    print()
    print(text)
