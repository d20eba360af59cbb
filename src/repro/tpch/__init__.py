"""TPC-H kit: schema (paper section 8 DDL), data generator, the 22 queries
as SQL text, and the RF1/RF2 refresh functions used in the update-impact
experiment."""

from repro.tpch.schema import tpch_schemas
from repro.tpch.dbgen import generate_tpch
from repro.tpch.queries import QUERIES
from repro.tpch.refresh import refresh_rf1, refresh_rf2

__all__ = [
    "tpch_schemas",
    "generate_tpch",
    "QUERIES",
    "refresh_rf1",
    "refresh_rf2",
]
