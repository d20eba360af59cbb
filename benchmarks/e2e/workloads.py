"""The four workloads: seeded statement streams plus their references.

A workload hands the harness one *round* at a time -- a short, fixed mix
of operations in a fixed order. ``--seed`` decides literals and keys
only; the program sees nothing but the SQL text, bound parameters and
arrays generated here. The harness repeats whole rounds until the
measuring time is used up, so every run reports the same mix whatever
the speed of the host.

Why each workload exists is in its docstring, in ``BENCHMARK.json`` and,
at length, in the README.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.common.types import date_to_days, days_to_date
from repro.engine.expressions import Col, InList
from repro.tpch.dbgen import PRIORITIES, SEGMENTS, SHIP_MODES
from repro.tpch.refresh import make_rf1_batch

from benchmarks.e2e import oracle
from benchmarks.e2e.oracle import Model

READ, WRITE, BACKGROUND = "read", "write", "background"

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


class Op:
    """One operation of a round: ``run(env)`` talks to the server,
    ``check(value)`` says whether what came back is right."""

    __slots__ = ("template", "kind", "run", "check")

    def __init__(self, template: str, kind: str, run: Callable,
                 check: Callable):
        self.template = template
        self.kind = kind
        self.run = run
        self.check = check


class Env:
    """What a workload runs against."""

    def __init__(self, cluster, conn, model: Model):
        self.cluster = cluster
        self.conn = conn
        self.model = model


def _date(days: int) -> str:
    return f"date '{days_to_date(days).isoformat()}'"


def _day(rng, first: str, last: str) -> int:
    return int(rng.integers(date_to_days(first), date_to_days(last) + 1))


# ------------------------------------------------------------- templates
#
# Each returns (sql, reference) for one fresh draw; the reference takes
# the model and returns the expected columns.

def q1(rng):
    cutoff = _day(rng, "1997-01-01", "1998-12-01")
    sql = ("SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
           "sum(l_extendedprice) AS sum_base_price, "
           "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
           "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
           "AS sum_charge, avg(l_quantity) AS avg_qty, "
           "avg(l_extendedprice) AS avg_price, avg(l_discount) AS avg_disc, "
           "count(*) AS count_order FROM lineitem "
           f"WHERE l_shipdate <= {_date(cutoff)} "
           "GROUP BY l_returnflag, l_linestatus "
           "ORDER BY l_returnflag, l_linestatus")
    return sql, lambda m: oracle.q1(m, cutoff)


def _q6(rng, column: str, lo: int, hi: int, lo_sql: str, hi_sql: str):
    centre = int(rng.integers(2, 10))
    disc_lo, disc_hi = (centre - 1) / 100, (centre + 1) / 100
    qty = float(rng.integers(24, 26))
    # the quantity bound is written as a float: an integer literal on a
    # DECIMAL column is compared unscaled by MinMax skipping and prunes
    # every block (see README, "Findings")
    sql = ("SELECT sum(l_extendedprice * l_discount) AS revenue "
           f"FROM lineitem WHERE {column} >= {lo_sql} "
           f"AND {column} < {hi_sql} "
           f"AND l_discount BETWEEN {disc_lo!r} AND {disc_hi!r} "
           f"AND l_quantity < {qty!r}")
    return sql, lambda m: oracle.q6(m, column, lo, hi, disc_lo, disc_hi, qty)


def q6_year(rng):
    lo = _day(rng, "1992-06-01", "1997-06-01")
    return _q6(rng, "l_shipdate", lo, lo + 365, _date(lo), _date(lo + 365))


#: orders spanned by the narrow Q6; the range is on the cluster key, so
#: MinMax skipping leaves one or two blocks per column and partition
NARROW_ORDERS = 2000


def q6_narrow(rng, n_orders: int):
    lo = int(rng.integers(1, n_orders - NARROW_ORDERS))
    hi = lo + NARROW_ORDERS
    return _q6(rng, "l_orderkey", lo, hi, str(lo), str(hi))


def q12(rng):
    modes = [str(s) for s in rng.choice(SHIP_MODES, 2, replace=False)]
    lo = _day(rng, "1993-01-01", "1997-01-01")
    sql = ("SELECT l_shipmode, sum(CASE WHEN o_orderpriority = '1-URGENT' "
           "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) "
           "AS high_line_count, sum(CASE WHEN o_orderpriority <> '1-URGENT' "
           "AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) "
           "AS low_line_count FROM lineitem "
           "JOIN orders ON l_orderkey = o_orderkey "
           f"WHERE l_shipmode IN ('{modes[0]}', '{modes[1]}') "
           "AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
           f"AND l_receiptdate >= {_date(lo)} "
           f"AND l_receiptdate < {_date(lo + 365)} "
           "GROUP BY l_shipmode ORDER BY l_shipmode")
    return sql, lambda m: oracle.q12(m, modes, lo, lo + 365)


def q14(rng):
    lo = _day(rng, "1993-01-01", "1998-01-01")
    sql = ("SELECT sum(CASE WHEN p_type LIKE 'PROMO%' "
           "THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) AS promo, "
           "sum(l_extendedprice * (1 - l_discount)) AS total "
           "FROM lineitem JOIN part ON l_partkey = p_partkey "
           f"WHERE l_shipdate >= {_date(lo)} "
           f"AND l_shipdate < {_date(lo + 30)}")
    return sql, lambda m: oracle.q14(m, lo, lo + 30)


def big_orders(rng):
    threshold = int(rng.integers(2000, 2601)) / 10
    sql = ("SELECT l_orderkey, sum(l_quantity) AS q FROM lineitem "
           f"GROUP BY l_orderkey HAVING q > {threshold!r} "
           "ORDER BY q DESC, l_orderkey LIMIT 100")
    return sql, lambda m: oracle.big_orders(m, threshold, 100)


def q3(rng):
    segment = str(rng.choice(SEGMENTS))
    date = _day(rng, "1995-01-01", "1995-06-30")
    sql = ("SELECT l_orderkey, o_orderdate, o_shippriority, "
           "sum(l_extendedprice * (1 - l_discount)) AS revenue "
           "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
           "JOIN customer ON o_custkey = c_custkey "
           f"WHERE c_mktsegment = '{segment}' "
           f"AND o_orderdate < {_date(date)} AND l_shipdate > {_date(date)} "
           "GROUP BY l_orderkey, o_orderdate, o_shippriority "
           "ORDER BY revenue DESC, o_orderdate LIMIT 10")
    return sql, lambda m: oracle.q3(m, segment, date, 10)


def q5(rng):
    region = str(rng.choice(REGIONS))
    lo = _day(rng, "1993-01-01", "1997-01-01")
    sql = ("SELECT n_name, sum(l_extendedprice * (1 - l_discount)) "
           "AS revenue FROM lineitem "
           "JOIN orders ON l_orderkey = o_orderkey "
           "JOIN customer ON o_custkey = c_custkey "
           "JOIN supplier ON l_suppkey = s_suppkey "
           "JOIN nation ON s_nationkey = n_nationkey "
           "JOIN region ON n_regionkey = r_regionkey "
           f"WHERE r_name = '{region}' AND c_nationkey = s_nationkey "
           f"AND o_orderdate >= {_date(lo)} "
           f"AND o_orderdate < {_date(lo + 365)} "
           "GROUP BY n_name ORDER BY revenue DESC")
    return sql, lambda m: oracle.q5(m, region, lo, lo + 365)


def q10(rng):
    lo = _day(rng, "1993-01-01", "1995-06-01")
    sql = ("SELECT c_custkey, c_name, "
           "sum(l_extendedprice * (1 - l_discount)) AS revenue, "
           "c_acctbal, n_name FROM lineitem "
           "JOIN orders ON l_orderkey = o_orderkey "
           "JOIN customer ON o_custkey = c_custkey "
           "JOIN nation ON c_nationkey = n_nationkey "
           f"WHERE o_orderdate >= {_date(lo)} "
           f"AND o_orderdate < {_date(lo + 90)} AND l_returnflag = 'R' "
           "GROUP BY c_custkey, c_name, c_acctbal, n_name "
           "ORDER BY revenue DESC, c_custkey LIMIT 20")
    return sql, lambda m: oracle.q10(m, lo, lo + 90, 20)


def q4_orders(rng):
    lo = _day(rng, "1992-03-01", "1998-01-01")
    sql = ("SELECT o_orderpriority, count(*) AS order_count FROM orders "
           f"WHERE o_orderdate >= {_date(lo)} "
           f"AND o_orderdate < {_date(lo + 90)} "
           "GROUP BY o_orderpriority ORDER BY o_orderpriority")
    return sql, lambda m: oracle.q4_orders(m, lo, lo + 90)


ORDER_BY_KEY = ("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate "
                "FROM orders WHERE o_orderkey = ")
LINES_OF_ORDER = ("SELECT l_linenumber, l_quantity, l_extendedprice "
                  "FROM lineitem WHERE l_orderkey = {} ORDER BY l_linenumber")
SUPPLIER_BY_KEY = ("SELECT s_suppkey, s_acctbal FROM supplier "
                   "WHERE s_suppkey = ")


# ------------------------------------------------------------- workloads

class Workload:
    """Base: a seeded generator of rounds against one cluster."""

    name = ""
    #: rounds of the smoke mode's timed pass (about 20 statements)
    smoke_rounds = 1
    #: templates the result cache is expected to answer
    hit_templates: tuple = ()
    #: update propagation seen so far (``trickle_mixed`` only moves these)
    full_rewrites = 0
    entries_resident_max = 0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 7])
        self._seen = set()
        self.env: Optional[Env] = None

    def configure(self, config) -> None:
        """Adjust the cluster ``Config`` before the cluster is built."""

    def start(self, env: Env) -> None:
        self.env = env

    def round(self) -> Iterator[Op]:
        """Yield one round's operations; each is built only when the
        harness asks for it, after the previous one has run and updated
        the model."""
        raise NotImplementedError

    def warm_up(self) -> List[Op]:
        """Operations to run once, untimed, before the first round."""
        return []

    def finish(self) -> List[str]:
        """End-of-run checks; returns one message per failed check."""
        return []

    # -- helpers ------------------------------------------------------------

    def fresh(self, template: Callable):
        """Draw until the statement text is new in this run, so neither
        cache of the server can answer it."""
        while True:
            sql, reference = template(self.rng)
            if sql not in self._seen:
                self._seen.add(sql)
                return sql, reference

    def fresh_key(self, keys: np.ndarray, tag: str) -> int:
        while True:
            key = int(self.rng.choice(keys))
            if (tag, key) not in self._seen:
                self._seen.add((tag, key))
                return key

    def simple(self, name: str, sql: str, reference: Callable,
               kind: str = READ) -> Op:
        model = self.env.model
        return Op(name, kind, lambda env: env.conn.simple_query(sql),
                  lambda value: oracle.same(value, reference(model)))

    def simple_fresh(self, name: str, template: Callable) -> Op:
        sql, reference = self.fresh(template)
        return self.simple(name, sql, reference)

    def q6_narrow(self, name: str = "q6_narrow") -> Op:
        n_orders = len(self.env.model.t["orders"]["o_orderkey"])
        return self.simple_fresh(name, lambda rng: q6_narrow(rng, n_orders))

    def prepared(self, name: str, statement: str, params: tuple,
                 reference: Callable) -> Op:
        model = self.env.model

        def run(env):
            env.conn.bind(statement, params)
            return env.conn.execute()
        return Op(name, READ, run,
                  lambda value: oracle.same(value, reference(model)))


class TpchScan(Workload):
    """Single-table and co-located scans with fresh literals: decode,
    storage and aggregation do the work, exchange and planning almost
    none."""

    name = "tpch_scan"
    smoke_rounds = 4

    def round(self):
        yield self.simple_fresh("q1", q1)
        yield self.simple_fresh("q6_year", q6_year)
        yield self.simple_fresh("q12", q12)
        yield self.simple_fresh("q14", q14)
        yield self.simple_fresh("big_orders", big_orders)


class TpchJoin(Workload):
    """3- to 6-way joins with repartition/broadcast exchanges and TopN: hash
    build/probe, DXchg and net carry the time, decode is a minority
    share."""

    name = "tpch_join"
    smoke_rounds = 6

    def round(self):
        yield self.simple_fresh("q3", q3)
        yield self.simple_fresh("q5", q5)
        yield self.simple_fresh("q10", q10)


class ServeShort(Workload):
    """Short statements over both protocols, 30% drawn from a Zipf hot set:
    parse/bind, planning, admission, per-pull dispatch, the server caches
    and the always-on instruments are a visible share of the cost."""

    name = "serve_short"
    hit_templates = ("hot",)

    HOT_ENTRIES = 16
    ZIPF_S = 1.1
    #: per round of 20: 30% hot; by latency the rest order q4_orders <
    #: point lookups < narrow Q6, which puts the 50th percentile inside
    #: the point lookups (45-85%) and the 90th inside the narrow Q6
    MIX = (("hot", 6), ("q6_narrow", 3), ("q4_orders", 3),
           ("order_by_key", 4), ("lines_of_order", 4))

    def start(self, env):
        super().start(env)
        env.conn.parse("order_by_key", ORDER_BY_KEY + "$1")
        env.conn.parse("lines_of_order", LINES_OF_ORDER.format("$1"))
        self.keys = env.model.t["orders"]["o_orderkey"].copy()
        makers = [self._order_by_key, self._lines_of_order,
                  lambda: self.q6_narrow("hot"),
                  lambda: self.simple_fresh("hot", q4_orders)]
        self.hot = [makers[i % 4]() for i in range(self.HOT_ENTRIES)]
        for op in self.hot:
            op.template = "hot"
        ranks = np.arange(1, self.HOT_ENTRIES + 1, dtype=np.float64)
        self.hot_p = ranks ** -self.ZIPF_S / (ranks ** -self.ZIPF_S).sum()
        plan = [name for name, count in self.MIX for _ in range(count)]
        self.plan = [plan[i] for i in self.rng.permutation(len(plan))]

    def _order_by_key(self):
        key = self.fresh_key(self.keys, "o")
        return self.prepared("order_by_key", "order_by_key", (key,),
                             lambda m: oracle.order_by_key(m, key))

    def _lines_of_order(self):
        key = self.fresh_key(self.keys, "l")
        return self.prepared("lines_of_order", "lines_of_order", (key,),
                             lambda m: oracle.lines_of_order(m, key))

    def round(self):
        make = {
            "hot": lambda: self.hot[int(self.rng.choice(
                self.HOT_ENTRIES, p=self.hot_p))],
            "q6_narrow": self.q6_narrow,
            "q4_orders": lambda: self.simple_fresh("q4_orders", q4_orders),
            "order_by_key": self._order_by_key,
            "lines_of_order": self._lines_of_order,
        }
        for name in self.plan:
            yield make[name]()

    def warm_up(self) -> List[Op]:
        """Fill the result cache with the whole hot set."""
        return list(self.hot)


class TrickleMixed(Workload):
    """Writes beside reads: RF1/RF2 and single-row DML between queries, so
    PDT merge, 2PC+WAL commit, cache invalidation and update propagation
    all run in the foreground."""

    name = "trickle_mixed"
    hit_templates = ("hot_again",)

    REFRESH_FRACTION = 0.001
    #: per-partition PDT entries that trigger propagation: a lineitem
    #: partition collects ~30 per cycle at SF 0.02, so each is rewritten
    #: about every fourth cycle
    PROPAGATE_THRESHOLD = 128

    def configure(self, config):
        config.pdt_propagate_threshold = self.PROPAGATE_THRESHOLD

    def start(self, env):
        super().start(env)
        hot_sql, hot_reference = self.fresh(q4_orders)
        self.hot = (hot_sql, hot_reference)

    # -- writes ---------------------------------------------------------------

    def _write(self, name: str, run: Callable, predicted: int,
               apply: Callable) -> Op:
        """A write is right when the server acknowledges exactly the rows
        the model predicts; the model then takes the same change."""
        def check(ack):
            apply()
            return ack == predicted
        return Op(name, WRITE, run, check)

    def _rf1(self) -> Op:
        model = self.env.model
        n_new = max(1, int(model.rows("orders") * self.REFRESH_FRACTION))
        existing = np.array([model.next_orderkey - 1], dtype=np.int64)
        orders, lines = make_rf1_batch(
            existing, n_new, model.rows("customer"), model.rows("part"),
            model.rows("supplier"), seed=int(self.rng.integers(1 << 31)))
        model.next_orderkey += n_new

        def run(env):
            trans = env.cluster.begin()
            env.cluster.insert("orders", orders, trans=trans, force_pdt=True)
            env.cluster.insert("lineitem", lines, trans=trans,
                               force_pdt=True)
            trans.commit()
            return n_new + len(lines["l_orderkey"])

        def apply():
            model.append("orders", orders)
            model.append("lineitem", lines)
        return self._write("rf1", run, n_new + len(lines["l_orderkey"]),
                           apply)

    def _rf2(self) -> Op:
        model = self.env.model
        keys = model.t["orders"]["o_orderkey"]
        n_del = max(1, int(len(keys) * self.REFRESH_FRACTION))
        victims = [int(k) for k in self.rng.choice(keys, n_del,
                                                   replace=False)]
        predicted = n_del + int(np.isin(
            model.t["lineitem"]["l_orderkey"], victims).sum())

        def run(env):
            trans = env.cluster.begin()
            deleted = env.cluster.delete_where(
                "orders", InList(Col("o_orderkey"), victims), trans=trans)
            deleted += env.cluster.delete_where(
                "lineitem", InList(Col("l_orderkey"), victims), trans=trans)
            trans.commit()
            return deleted

        def apply():
            model.delete("orders", "o_orderkey", victims)
            model.delete("lineitem", "l_orderkey", victims)
        return self._write("rf2", run, predicted, apply)

    def _dml(self, name: str, sql: str, predicted: int,
             apply: Callable) -> Op:
        return self._write(name, lambda env: env.conn.simple_query(sql),
                           predicted, apply)

    def _single_row_dml(self) -> Iterator[Op]:
        """Four single-row statements, each followed by reading the write
        back through the same connection."""
        model, rng = self.env.model, self.rng

        key = int(rng.choice(model.t["orders"]["o_orderkey"]))
        price = int(rng.integers(100_000, 40_000_000)) / 100
        yield self._dml(
            "update_order",
            f"UPDATE orders SET o_totalprice = {price!r} "
            f"WHERE o_orderkey = {key}", 1,
            lambda: model.update("orders", "o_orderkey", key,
                                 "o_totalprice", price))
        yield self.simple("read_back", ORDER_BY_KEY + str(key),
                          lambda m: oracle.order_by_key(m, key))

        victim = int(rng.choice(model.t["lineitem"]["l_orderkey"]))
        n_lines = int((model.t["lineitem"]["l_orderkey"] == victim).sum())
        yield self._dml(
            "delete_lines",
            f"DELETE FROM lineitem WHERE l_orderkey = {victim}", n_lines,
            lambda: model.delete("lineitem", "l_orderkey", [victim]))
        yield self.simple("read_back", LINES_OF_ORDER.format(victim),
                          lambda m: oracle.lines_of_order(m, victim))

        new_key = model.next_orderkey
        model.next_orderkey += 1
        row = {
            "o_orderkey": new_key,
            "o_custkey": int(rng.integers(1, model.rows("customer") + 1)),
            "o_totalprice": int(rng.integers(100_000, 40_000_000)) / 100,
            "o_orderdate": _day(rng, "1992-01-01", "1998-03-01"),
            "o_orderpriority": str(rng.choice(PRIORITIES)),
            "o_shippriority": 0,
        }
        yield self._dml(
            "insert_order",
            f"INSERT INTO orders VALUES ({new_key}, {row['o_custkey']}, "
            f"'O', {row['o_totalprice']!r}, {_date(row['o_orderdate'])}, "
            f"'{row['o_orderpriority']}', 'Clerk#000000001', 0, "
            "'inserted by the benchmark')", 1,
            lambda: model.append("orders", {
                k: np.array([v]) for k, v in row.items()}))
        yield self.simple("read_back", ORDER_BY_KEY + str(new_key),
                          lambda m: oracle.order_by_key(m, new_key))

        supp = int(rng.integers(1, model.rows("supplier") + 1))
        balance = int(rng.integers(-99_999, 999_999)) / 100
        yield self._dml(
            "update_supplier",
            f"UPDATE supplier SET s_acctbal = {balance!r} "
            f"WHERE s_suppkey = {supp}", 1,
            lambda: model.update("supplier", "s_suppkey", supp,
                                 "s_acctbal", balance))
        yield self.simple("read_back", SUPPLIER_BY_KEY + str(supp),
                          lambda m: oracle.supplier_by_key(m, supp))

    # -- the cycle --------------------------------------------------------------

    def _count(self, table: str) -> Op:
        return self.simple(
            "count_rows", f"SELECT count(*) AS n FROM {table}",
            lambda m: oracle.count_rows(m, table))

    def _propagate(self) -> Op:
        def run(env):
            self.entries_resident_max = max(
                self.entries_resident_max,
                max(stack.total_entries()
                    for stored in env.cluster.tables.values()
                    for stack in stored.pdt))
            stats = env.cluster.propagate_updates()
            self.full_rewrites += stats["full"]
            return stats
        return Op("propagate", BACKGROUND, run, lambda stats: True)

    def round(self):
        hot_sql, hot_reference = self.hot
        yield self._rf1()
        yield from self._single_row_dml()
        yield self._rf2()
        # two Q1 per cycle keep the 90th read percentile inside Q1
        yield self.simple_fresh("q1", q1)
        yield self.q6_narrow()
        yield self.simple("hot_first", hot_sql, hot_reference)
        yield self.simple("hot_again", hot_sql, hot_reference)
        yield self._count("lineitem")
        yield self._count("orders")
        yield self.simple_fresh("q1", q1)
        yield self._propagate()

    def finish(self):
        """The full-scan checksum must not change across a propagation,
        and must equal the model's."""
        env = self.env
        sql = ("SELECT count(*) AS n, sum(l_orderkey) AS keys, "
               "sum(l_linenumber) AS lines, sum(l_quantity) AS qty, "
               "sum(l_extendedprice) AS price FROM lineitem")
        expected = oracle.checksum(env.model)
        before = env.conn.simple_query(sql)
        env.cluster.propagate_updates(table="lineitem", force=True)
        after = env.conn.simple_query(sql + " ")
        problems = []
        if not oracle.same(before, expected):
            problems.append("checksum before the last propagation differs "
                            "from the model")
        if not oracle.same(after, {k: np.asarray(v)
                                   for k, v in before.columns.items()}):
            problems.append("checksum changed across the last propagation")
        return problems


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (TpchScan, TpchJoin, ServeShort, TrickleMixed)}
