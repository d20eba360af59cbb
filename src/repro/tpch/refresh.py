"""TPC-H refresh functions RF1 (inserts) and RF2 (deletes).

The paper's update-impact experiment (Figure 7 bottom) runs RF1 and RF2 and
compares the geometric mean of the 22 query times before and after: in
VectorH the differences land in PDTs and merge into scans almost for free
(GeoDiff 102.8%), whereas Hive's delta tables make queries 38% slower.

RF1 inserts ``0.1% * SF`` new orders with their lineitems; RF2 deletes the
same fraction of existing orders (and, via the FK, their lineitems).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.expressions import Col, InList
from repro.mpp.logical import LScan
from repro.tpch.dbgen import (
    PRIORITIES, SHIP_INSTRUCT, SHIP_MODES, START_DATE, END_DATE, _comments,
)


def make_rf1_batch(existing_orders: np.ndarray, n_new: int,
                   n_cust: int, n_part: int, n_supp: int,
                   seed: int = 7) -> Tuple[dict, dict]:
    """Generate new orders + lineitems keyed above the existing key space."""
    rng = np.random.default_rng(seed)
    start = int(existing_orders.max()) + 1 if len(existing_orders) else 1
    ok = np.arange(start, start + n_new, dtype=np.int64)
    o_date = rng.integers(START_DATE, END_DATE - 151, n_new).astype(np.int32)
    orders = {
        "o_orderkey": ok,
        "o_custkey": rng.integers(1, n_cust + 1, n_new).astype(np.int64),
        "o_orderstatus": np.full(n_new, "O", dtype=object),
        "o_totalprice": np.round(rng.uniform(1000, 400_000, n_new), 2),
        "o_orderdate": o_date,
        "o_orderpriority": rng.choice(PRIORITIES, n_new).astype(object),
        "o_clerk": np.full(n_new, "Clerk#000000001", dtype=object),
        "o_shippriority": np.zeros(n_new, dtype=np.int64),
        "o_comment": _comments(rng, n_new, 4),
    }
    lines_per = rng.integers(1, 8, n_new)
    n_line = int(lines_per.sum())
    l_order = np.repeat(ok, lines_per)
    l_odate = np.repeat(o_date, lines_per)
    l_ship = (l_odate + rng.integers(1, 122, n_line)).astype(np.int32)
    lineitems = {
        "l_orderkey": l_order,
        "l_partkey": rng.integers(1, n_part + 1, n_line).astype(np.int64),
        "l_suppkey": rng.integers(1, n_supp + 1, n_line).astype(np.int64),
        "l_linenumber": np.concatenate(
            [np.arange(1, c + 1) for c in lines_per]).astype(np.int64),
        "l_quantity": rng.integers(1, 51, n_line).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900, 100_000, n_line), 2),
        "l_discount": np.round(rng.integers(0, 11, n_line) / 100.0, 2),
        "l_tax": np.round(rng.integers(0, 9, n_line) / 100.0, 2),
        "l_returnflag": np.full(n_line, "N", dtype=object),
        "l_linestatus": np.full(n_line, "O", dtype=object),
        "l_shipdate": l_ship,
        "l_commitdate": (l_odate + rng.integers(30, 91, n_line)).astype(np.int32),
        "l_receiptdate": (l_ship + rng.integers(1, 31, n_line)).astype(np.int32),
        "l_shipinstruct": rng.choice(SHIP_INSTRUCT, n_line).astype(object),
        "l_shipmode": rng.choice(SHIP_MODES, n_line).astype(object),
        "l_comment": _comments(rng, n_line, 3),
    }
    return orders, lineitems


def _visible_orderkeys(cluster) -> np.ndarray:
    """Order keys a new snapshot sees: stable storage merged with the
    PDTs, so back-to-back refreshes need no propagation in between."""
    return cluster.query(
        LScan("orders", ["o_orderkey"])).batch.columns["o_orderkey"]


def refresh_rf1(cluster, fraction: float = 0.001, seed: int = 7) -> int:
    """Insert new orders + lineitems through PDTs; returns orders inserted."""
    existing = _visible_orderkeys(cluster)
    n_new = max(1, int(len(existing) * fraction))
    n_cust = sum(p.n_stable for p in cluster.tables["customer"].partitions)
    n_part = sum(p.n_stable for p in cluster.tables["part"].partitions)
    n_supp = sum(p.n_stable for p in cluster.tables["supplier"].partitions)
    new_orders, new_lines = make_rf1_batch(existing, n_new, n_cust, n_part,
                                           n_supp, seed)
    trans = cluster.begin()
    cluster.insert("orders", new_orders, trans=trans, force_pdt=True)
    cluster.insert("lineitem", new_lines, trans=trans, force_pdt=True)
    trans.commit()
    return n_new


def refresh_rf2(cluster, fraction: float = 0.001, seed: int = 8) -> int:
    """Delete a fraction of orders and their lineitems; returns orders hit."""
    rng = np.random.default_rng(seed)
    existing = _visible_orderkeys(cluster)
    n_del = max(1, int(len(existing) * fraction))
    victims = rng.choice(existing, n_del, replace=False).tolist()
    trans = cluster.begin()
    cluster.delete_where("orders", InList(Col("o_orderkey"), victims),
                         trans=trans)
    cluster.delete_where("lineitem", InList(Col("l_orderkey"), victims),
                         trans=trans)
    trans.commit()
    return n_del
