"""Plain-numpy reference answers, computed from the generated arrays.

``Model`` mirrors the tables the workloads read: it starts as a copy of
the generated columns and, in ``trickle_mixed``, takes the same inserts,
deletes and updates the cluster acknowledges. Every read template has one
reference function here; ``same`` compares a result batch with it --
exact on keys, counts, strings and row order, relative 1e-9 on float sums.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: the only columns the references read (strings become fixed-width
#: numpy unicode so comparisons and ``np.unique`` stay vectorized)
COLUMNS = {
    "lineitem": ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                 "l_quantity", "l_extendedprice", "l_discount", "l_tax",
                 "l_returnflag", "l_linestatus", "l_shipdate",
                 "l_commitdate", "l_receiptdate", "l_shipmode"],
    "orders": ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
               "o_orderpriority", "o_shippriority"],
    "customer": ["c_custkey", "c_name", "c_acctbal", "c_mktsegment",
                 "c_nationkey"],
    "part": ["p_partkey", "p_type"],
    "supplier": ["s_suppkey", "s_nationkey", "s_acctbal"],
    "nation": ["n_nationkey", "n_name", "n_regionkey"],
    "region": ["r_regionkey", "r_name"],
}

Columns = Dict[str, np.ndarray]


def _plain(arr: np.ndarray) -> np.ndarray:
    return arr.astype(str) if arr.dtype == object else np.asarray(arr)


class Model:
    """The benchmark's own copy of the data the cluster should hold."""

    def __init__(self, data: Dict[str, Columns]):
        self.t: Dict[str, Columns] = {
            name: {c: _plain(data[name][c]).copy() for c in cols}
            for name, cols in COLUMNS.items()
        }
        self.next_orderkey = int(self.t["orders"]["o_orderkey"].max()) + 1

    def rows(self, table: str) -> int:
        return len(next(iter(self.t[table].values())))

    def append(self, table: str, rows: Columns) -> int:
        cols = self.t[table]
        for name in cols:
            cols[name] = np.concatenate([cols[name], _plain(rows[name])])
        return len(next(iter(rows.values())))

    def delete(self, table: str, column: str, keys: Sequence[int]) -> int:
        cols = self.t[table]
        gone = np.isin(cols[column], np.asarray(keys))
        for name in cols:
            cols[name] = cols[name][~gone]
        return int(gone.sum())

    def update(self, table: str, key_column: str, key: int, column: str,
               value) -> int:
        cols = self.t[table]
        hit = cols[key_column] == key
        cols[column][hit] = value
        return int(hit.sum())


def _by_key(keys: np.ndarray, probe: np.ndarray):
    """Positions of ``probe`` values in the unique-key column ``keys``
    and a mask of the probes that exist."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.searchsorted(sorted_keys, probe)
    pos[pos == len(keys)] = 0
    found = sorted_keys[pos] == probe
    return order[pos], found


def _groups(keys: List[np.ndarray]):
    """Group ids in lexicographic key order: (inverse, first row of each
    group, number of groups)."""
    code = np.zeros(len(keys[0]), dtype=np.int64)
    for key in keys:
        uniq, inv = np.unique(key, return_inverse=True)
        code = code * len(uniq) + inv
    uniq, first, inv = np.unique(code, return_index=True,
                                 return_inverse=True)
    return inv, first, len(uniq)


def _sum(inv, n, values):
    return np.bincount(inv, weights=values, minlength=n)


def _revenue(li: Columns, mask) -> np.ndarray:
    return li["l_extendedprice"][mask] * (1.0 - li["l_discount"][mask])


# ------------------------------------------------------------ references

def q1(m: Model, cutoff: int) -> Columns:
    li = m.t["lineitem"]
    mask = li["l_shipdate"] <= cutoff
    flag, status = li["l_returnflag"][mask], li["l_linestatus"][mask]
    inv, first, n = _groups([flag, status])
    qty, price = li["l_quantity"][mask], li["l_extendedprice"][mask]
    disc = li["l_discount"][mask]
    disc_price = price * (1.0 - disc)
    count = np.bincount(inv, minlength=n)
    return {
        "l_returnflag": flag[first], "l_linestatus": status[first],
        "sum_qty": _sum(inv, n, qty),
        "sum_base_price": _sum(inv, n, price),
        "sum_disc_price": _sum(inv, n, disc_price),
        "sum_charge": _sum(inv, n, disc_price * (1.0 + li["l_tax"][mask])),
        "avg_qty": _sum(inv, n, qty) / count,
        "avg_price": _sum(inv, n, price) / count,
        "avg_disc": _sum(inv, n, disc) / count,
        "count_order": count,
    }


def q6(m: Model, column: str, lo: int, hi: int, disc_lo: float,
       disc_hi: float, qty: float) -> Columns:
    li = m.t["lineitem"]
    mask = ((li[column] >= lo) & (li[column] < hi)
            & (li["l_discount"] >= disc_lo) & (li["l_discount"] <= disc_hi)
            & (li["l_quantity"] < qty))
    value = li["l_extendedprice"][mask] * li["l_discount"][mask]
    return {"revenue": np.array([value.sum()])}


def q12(m: Model, modes: Sequence[str], lo: int, hi: int) -> Columns:
    li, orders = m.t["lineitem"], m.t["orders"]
    mask = (np.isin(li["l_shipmode"], modes)
            & (li["l_commitdate"] < li["l_receiptdate"])
            & (li["l_shipdate"] < li["l_commitdate"])
            & (li["l_receiptdate"] >= lo) & (li["l_receiptdate"] < hi))
    pos, found = _by_key(orders["o_orderkey"], li["l_orderkey"][mask])
    priority = orders["o_orderpriority"][pos[found]]
    mode = li["l_shipmode"][mask][found]
    high = np.isin(priority, ["1-URGENT", "2-HIGH"])
    inv, first, n = _groups([mode])
    return {"l_shipmode": mode[first],
            "high_line_count": _sum(inv, n, high),
            "low_line_count": _sum(inv, n, ~high)}


def q14(m: Model, lo: int, hi: int) -> Columns:
    li, part = m.t["lineitem"], m.t["part"]
    mask = (li["l_shipdate"] >= lo) & (li["l_shipdate"] < hi)
    pos, found = _by_key(part["p_partkey"], li["l_partkey"][mask])
    promo = np.char.startswith(part["p_type"][pos[found]], "PROMO")
    revenue = _revenue(li, mask)[found]
    return {"promo": np.array([revenue[promo].sum()]),
            "total": np.array([revenue.sum()])}


def big_orders(m: Model, threshold: float, limit: int) -> Columns:
    li = m.t["lineitem"]
    inv, first, n = _groups([li["l_orderkey"]])
    key, qty = li["l_orderkey"][first], _sum(inv, n, li["l_quantity"])
    keep = qty > threshold
    key, qty = key[keep], qty[keep]
    order = np.lexsort((key, -qty))[:limit]
    return {"l_orderkey": key[order], "q": qty[order]}


def q3(m: Model, segment: str, date: int, limit: int) -> Columns:
    li, orders, cust = m.t["lineitem"], m.t["orders"], m.t["customer"]
    cpos, cfound = _by_key(cust["c_custkey"], orders["o_custkey"])
    order_ok = (cfound & (cust["c_mktsegment"][cpos] == segment)
                & (orders["o_orderdate"] < date))
    mask = li["l_shipdate"] > date
    opos, ofound = _by_key(orders["o_orderkey"], li["l_orderkey"][mask])
    keep = ofound & order_ok[opos]
    opos, revenue = opos[keep], _revenue(li, mask)[keep]
    inv, first, n = _groups([orders["o_orderkey"][opos]])
    rows = opos[first]
    total = _sum(inv, n, revenue)
    odate = orders["o_orderdate"][rows]
    top = np.lexsort((odate, -total))[:limit]
    return {"l_orderkey": orders["o_orderkey"][rows][top],
            "o_orderdate": odate[top],
            "o_shippriority": orders["o_shippriority"][rows][top],
            "revenue": total[top]}


def q5(m: Model, region: str, lo: int, hi: int) -> Columns:
    t = m.t
    li, orders, cust, supp = (t["lineitem"], t["orders"], t["customer"],
                              t["supplier"])
    opos, ofound = _by_key(orders["o_orderkey"], li["l_orderkey"])
    date = orders["o_orderdate"][opos]
    cpos, cfound = _by_key(cust["c_custkey"], orders["o_custkey"][opos])
    spos, sfound = _by_key(supp["s_suppkey"], li["l_suppkey"])
    s_nation = supp["s_nationkey"][spos]
    npos, nfound = _by_key(t["nation"]["n_nationkey"], s_nation)
    rpos, rfound = _by_key(t["region"]["r_regionkey"],
                           t["nation"]["n_regionkey"][npos])
    mask = (ofound & cfound & sfound & nfound & rfound
            & (date >= lo) & (date < hi)
            & (cust["c_nationkey"][cpos] == s_nation)
            & (t["region"]["r_name"][rpos] == region))
    name = t["nation"]["n_name"][npos][mask]
    inv, first, n = _groups([name])
    total = _sum(inv, n, _revenue(li, mask))
    order = np.argsort(-total, kind="stable")
    return {"n_name": name[first][order], "revenue": total[order]}


def q10(m: Model, lo: int, hi: int, limit: int) -> Columns:
    t = m.t
    li, orders, cust = t["lineitem"], t["orders"], t["customer"]
    mask = li["l_returnflag"] == "R"
    opos, ofound = _by_key(orders["o_orderkey"], li["l_orderkey"][mask])
    date = orders["o_orderdate"][opos]
    cpos, cfound = _by_key(cust["c_custkey"], orders["o_custkey"][opos])
    npos, nfound = _by_key(t["nation"]["n_nationkey"],
                           cust["c_nationkey"][cpos])
    keep = ofound & cfound & nfound & (date >= lo) & (date < hi)
    cpos, npos = cpos[keep], npos[keep]
    inv, first, n = _groups([cust["c_custkey"][cpos]])
    total = _sum(inv, n, _revenue(li, mask)[keep])
    crow, nrow = cpos[first], npos[first]
    custkey = cust["c_custkey"][crow]
    top = np.lexsort((custkey, -total))[:limit]
    return {"c_custkey": custkey[top], "c_name": cust["c_name"][crow][top],
            "revenue": total[top], "c_acctbal": cust["c_acctbal"][crow][top],
            "n_name": t["nation"]["n_name"][nrow][top]}


def q4_orders(m: Model, lo: int, hi: int) -> Columns:
    orders = m.t["orders"]
    mask = (orders["o_orderdate"] >= lo) & (orders["o_orderdate"] < hi)
    priority = orders["o_orderpriority"][mask]
    inv, first, n = _groups([priority])
    return {"o_orderpriority": priority[first],
            "order_count": np.bincount(inv, minlength=n)}


def order_by_key(m: Model, key: int) -> Columns:
    orders = m.t["orders"]
    hit = orders["o_orderkey"] == key
    return {c: orders[c][hit] for c in
            ("o_orderkey", "o_custkey", "o_totalprice", "o_orderdate")}


def lines_of_order(m: Model, key: int) -> Columns:
    li = m.t["lineitem"]
    hit = np.flatnonzero(li["l_orderkey"] == key)
    hit = hit[np.argsort(li["l_linenumber"][hit], kind="stable")]
    return {c: li[c][hit] for c in
            ("l_linenumber", "l_quantity", "l_extendedprice")}


def supplier_by_key(m: Model, key: int) -> Columns:
    supp = m.t["supplier"]
    hit = supp["s_suppkey"] == key
    return {c: supp[c][hit] for c in ("s_suppkey", "s_acctbal")}


def count_rows(m: Model, table: str) -> Columns:
    return {"n": np.array([m.rows(table)])}


def checksum(m: Model) -> Columns:
    """The full-scan checksum taken around the last propagation."""
    li = m.t["lineitem"]
    return {"n": np.array([len(li["l_orderkey"])]),
            "keys": np.array([li["l_orderkey"].sum()]),
            "lines": np.array([li["l_linenumber"].sum()]),
            "qty": np.array([li["l_quantity"].sum()]),
            "price": np.array([li["l_extendedprice"].sum()])}


# ------------------------------------------------------------ comparison

def same(batch, expected: Columns) -> bool:
    """Does a result batch equal the reference?"""
    columns = getattr(batch, "columns", None)
    if columns is None:
        return False
    n = len(next(iter(expected.values())))
    if batch.n != n:
        return False
    for name, want in expected.items():
        got = columns.get(name)
        if got is None or len(got) != n:
            return False
        if want.dtype.kind == "f":
            if not np.allclose(np.asarray(got, dtype=np.float64), want,
                               rtol=1e-9, atol=1e-9):
                return False
        elif want.dtype.kind == "U":
            if not np.array_equal(np.asarray(got).astype(str), want):
                return False
        elif not np.array_equal(np.asarray(got, dtype=np.float64),
                                want.astype(np.float64)):
            return False
    return True
