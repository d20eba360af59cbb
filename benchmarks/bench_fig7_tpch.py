"""Figure 7: TPC-H, VectorH vs Hive / Impala / SparkSQL / HAWQ profiles.

The paper's headline table: all 22 queries, one row per system, plus the
"how many times faster is VectorH" series. Absolute numbers are laptop-
scale simulations; the *shape* under test is the paper's conclusion --
VectorH is at least one order of magnitude faster than every competitor
(1-3 orders overall), HAWQ is the closest competitor, and Hive/Impala
trail by the largest factors.

Times are simulated parallel seconds: per-stream compute on the slowest
worker plus network at 10GbE for VectorH; for the row-engine competitors,
scan work divided across workers, join/aggregation work divided only where
the engine has multi-core joins (not Impala), plus per-stage scheduling
overhead (heavy for Hive's containers, light for HAWQ).
"""

import gc
import math
import os

import numpy as np
import pytest

from benchmarks.conftest import (
    N_WORKERS, SCALE_FACTOR, bench_config, write_report,
)
from repro.baselines import CompetitorSystem
from repro.tpch import QUERIES

QUERY_NUMBERS = [
    int(q) for q in os.environ.get(
        "REPRO_TPCH_QUERIES", ",".join(str(i) for i in range(1, 23))
    ).split(",")
]

SYSTEMS = ["hive", "impala", "sparksql", "hawq"]


class VectorHRunner:
    """Accumulates simulated time across the plans of one query."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.seconds = 0.0

    def __call__(self, plan):
        result = self.cluster.query(plan)
        self.seconds += result.simulated_total_seconds()
        return result.batch


class CompetitorRunner:
    def __init__(self, system):
        self.system = system
        self.seconds = 0.0

    def __call__(self, plan):
        batch = self.system.runner(plan)
        self.seconds += self.system.simulated_seconds()
        return batch


@pytest.fixture(scope="module")
def competitors(tpch_data):
    loaded = {}
    rows_per_group = max(1024, int(60_000 * SCALE_FACTOR / 8))
    for name in SYSTEMS:
        system = CompetitorSystem(name, workers=N_WORKERS,
                                  rows_per_group=rows_per_group,
                                  config=bench_config())
        system.load(tpch_data)
        loaded[name] = system
    return loaded


def test_fig7_tpch_all_systems(vectorh, competitors, benchmark):
    times = {name: {} for name in ["vectorh"] + SYSTEMS}
    for q in QUERY_NUMBERS:
        # VectorH's times come from wall: a full collection of what the
        # run has piled up (the competitors' row dicts fill the heap)
        # must not land inside whichever query happens to trip it
        gc.collect()
        runner = VectorHRunner(vectorh)
        QUERIES[q](runner)
        times["vectorh"][q] = runner.seconds
        for name, system in competitors.items():
            gc.collect()
            competitor = CompetitorRunner(system)
            QUERIES[q](competitor)
            times[name][q] = competitor.seconds

    lines = [f"FIG 7: TPC-H SF={SCALE_FACTOR}, {N_WORKERS} workers "
             f"(simulated seconds)"]
    header = f"{'system':>9}" + "".join(f" Q{q:<7}" for q in QUERY_NUMBERS)
    lines.append(header)
    for name in ["vectorh"] + SYSTEMS:
        row = f"{name:>9}" + "".join(
            f" {times[name][q]:<7.3f}" for q in QUERY_NUMBERS)
        lines.append(row)
    lines.append("\nHow many times faster is VectorH?")
    speedups_all = {}
    for name in SYSTEMS:
        ratios = [times[name][q] / max(times["vectorh"][q], 1e-9)
                  for q in QUERY_NUMBERS]
        speedups_all[name] = ratios
        geo = math.exp(sum(math.log(max(r, 1e-9)) for r in ratios)
                       / len(ratios))
        lines.append(f"{name:>9}: geo-mean {geo:8.1f}x   "
                     f"min {min(ratios):7.1f}x   max {max(ratios):8.1f}x")
    write_report("fig7_tpch.txt", "\n".join(lines))

    # Shape assertions from the paper's conclusions
    for name in SYSTEMS:
        ratios = speedups_all[name]
        geo = math.exp(sum(math.log(max(r, 1e-9)) for r in ratios)
                       / len(ratios))
        assert geo > 5.0, f"VectorH should dominate {name} (geo {geo:.1f}x)"
        beaten = sum(1 for r in ratios if r > 1.0)
        assert beaten >= 0.9 * len(ratios), (
            f"VectorH should win nearly every query vs {name}"
        )
    # HAWQ is the closest competitor (paper: "a bit faster than the rest")
    geo_of = {
        name: math.exp(sum(math.log(max(r, 1e-9))
                           for r in speedups_all[name])
                       / len(speedups_all[name]))
        for name in SYSTEMS
    }
    assert geo_of["hawq"] <= min(geo_of["hive"], geo_of["impala"])

    benchmark(lambda: QUERIES[6](VectorHRunner(vectorh)))
