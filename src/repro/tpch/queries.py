"""All 22 TPC-H queries as SQL text, bound by :mod:`repro.sql`.

Each query is a function ``qN(run)`` where ``run(plan) -> Batch`` executes a
logical plan -- on the VectorH cluster, or on the baseline row engine, so
both systems answer the *same* plans. The texts bind against the TPC-H
schemas alone (:func:`~repro.sql.binder.bind_select`), not a live cluster,
so no cluster's feedback reorders the joins of the plan every engine gets.

The texts are written in the shape a production optimizer gives these
queries: EXISTS / NOT EXISTS (Q4, Q21, Q22) and a dimension that only
filters are ``[NOT] IN (SELECT ...)`` (a semi or anti join), a correlated
aggregate (Q2, Q17, Q20, Q21) is a derived table joined on its
correlation key, a scalar subquery (Q11, Q15, Q22) is a first statement
whose one value goes into the second text as a literal, and a filter on
one join input is a derived table over that input, so the join sees the
filtered rows and the planner their estimate.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.engine.batch import Batch
from repro.sql.binder import bind_select
from repro.tpch.schema import tpch_schemas

Runner = Callable[[object], Batch]

SCHEMAS = tpch_schemas()

#: the first statement of a query with a scalar subquery: its one value
#: is the ``{scalar}`` of the query's text
SCALARS: Dict[int, str] = {
    11: """
SELECT sum(ps_supplycost * ps_availqty) * 0.0001 AS threshold
FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey
WHERE s_nationkey IN (SELECT n_nationkey FROM nation WHERE n_name = 'GERMANY')
""",
    15: """
SELECT max(total_revenue) - 0.000001 AS threshold
FROM (SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount)) AS total_revenue
      FROM lineitem
      WHERE l_shipdate >= date '1996-01-01' AND l_shipdate < date '1996-04-01'
      GROUP BY l_suppkey) AS revenue0
""",
    22: """
SELECT avg(c_acctbal) AS threshold FROM customer
WHERE substring(c_phone from 1 for 2) IN ('13', '31', '23', '29', '30', '18', '17')
  AND c_acctbal > 0.0
""",
}

SQL: Dict[int, str] = {
    1: """
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc, count(*) AS count_order
FROM lineitem WHERE l_shipdate <= date '1998-09-02'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
""",
    2: """
SELECT s_acctbal, s_name, n_name, ps_partkey, p_mfgr, s_address, s_phone,
       s_comment
FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN (SELECT p_partkey, p_mfgr FROM part
      WHERE p_size = 15 AND p_type LIKE '%BRASS') AS p ON ps_partkey = p_partkey
JOIN (SELECT ps_partkey, min(ps_supplycost) AS min_cost
      FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey
      JOIN nation ON s_nationkey = n_nationkey
      WHERE n_regionkey IN (SELECT r_regionkey FROM region
                            WHERE r_name = 'EUROPE')
      GROUP BY ps_partkey) AS m
  ON ps_partkey = ps_partkey AND ps_supplycost = min_cost
WHERE n_regionkey IN (SELECT r_regionkey FROM region WHERE r_name = 'EUROPE')
ORDER BY s_acctbal DESC, n_name, s_name, ps_partkey LIMIT 100
""",
    3: """
SELECT l_orderkey, o_orderdate, o_shippriority,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM (SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem
      WHERE l_shipdate > date '1995-03-15') AS l
JOIN (SELECT o_orderkey, o_orderdate, o_shippriority FROM orders
      WHERE o_custkey IN (SELECT c_custkey FROM customer
                          WHERE c_mktsegment = 'BUILDING')
        AND o_orderdate < date '1995-03-15') AS o
  ON l_orderkey = o_orderkey
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate LIMIT 10
""",
    4: """
SELECT o_orderpriority, count(*) AS order_count FROM orders
WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem
                     WHERE l_commitdate < l_receiptdate)
GROUP BY o_orderpriority ORDER BY o_orderpriority
""",
    5: """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM (SELECT l_extendedprice, l_discount, s_nationkey FROM lineitem
      JOIN (SELECT o_orderkey, o_custkey FROM orders
            WHERE o_orderdate >= date '1994-01-01'
              AND o_orderdate < date '1995-01-01') AS o
        ON l_orderkey = o_orderkey
      JOIN customer ON o_custkey = c_custkey
      JOIN supplier ON l_suppkey = s_suppkey
      WHERE c_nationkey = s_nationkey) AS local_supplier
JOIN nation ON s_nationkey = n_nationkey
WHERE n_regionkey IN (SELECT r_regionkey FROM region WHERE r_name = 'ASIA')
GROUP BY n_name ORDER BY revenue DESC
""",
    6: """
SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
""",
    7: """
SELECT supp_nation, cust_nation, extract(year from l_shipdate) AS l_year,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM (SELECT l_orderkey, l_suppkey, l_shipdate, l_extendedprice, l_discount
      FROM lineitem WHERE l_shipdate >= date '1995-01-01'
                      AND l_shipdate <= date '1996-12-31') AS l
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN (SELECT n_nationkey AS n1_key, n_name AS supp_nation FROM nation) AS n1
  ON s_nationkey = n1_key
JOIN (SELECT n_nationkey AS n2_key, n_name AS cust_nation FROM nation) AS n2
  ON c_nationkey = n2_key
WHERE supp_nation = 'FRANCE' AND cust_nation = 'GERMANY'
   OR supp_nation = 'GERMANY' AND cust_nation = 'FRANCE'
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
""",
    8: """
SELECT extract(year from o_orderdate) AS o_year,
       sum(CASE WHEN supp_nation = 'BRAZIL'
                THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END)
       / sum(l_extendedprice * (1 - l_discount)) AS mkt_share
FROM lineitem
JOIN (SELECT o_orderkey, o_custkey, o_orderdate FROM orders
      WHERE o_orderdate >= date '1995-01-01'
        AND o_orderdate <= date '1996-12-31') AS o
  ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN (SELECT n_nationkey AS n2_key, n_name AS supp_nation FROM nation) AS n2
  ON s_nationkey = n2_key
WHERE l_partkey IN (SELECT p_partkey FROM part
                    WHERE p_type = 'ECONOMY ANODIZED STEEL')
  AND n_regionkey IN (SELECT r_regionkey FROM region WHERE r_name = 'AMERICA')
GROUP BY o_year ORDER BY o_year
""",
    9: """
SELECT n_name AS nation, extract(year from o_orderdate) AS o_year,
       sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
         AS sum_profit
FROM lineitem
JOIN partsupp ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey
JOIN orders ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE '%green%')
GROUP BY nation, o_year ORDER BY nation, o_year DESC
""",
    10: """
SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM (SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem
      WHERE l_returnflag = 'R') AS l
JOIN (SELECT o_orderkey, o_custkey FROM orders
      WHERE o_orderdate >= date '1993-10-01'
        AND o_orderdate < date '1994-01-01') AS o
  ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC LIMIT 20
""",
    11: """
SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS value
FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey
WHERE s_nationkey IN (SELECT n_nationkey FROM nation WHERE n_name = 'GERMANY')
GROUP BY ps_partkey HAVING value > {scalar} ORDER BY value DESC
""",
    12: """
SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1.0 ELSE 0.0 END) AS high_line_count,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0.0 ELSE 1.0 END) AS low_line_count
FROM (SELECT l_orderkey, l_shipmode FROM lineitem
      WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate
        AND l_shipdate < l_commitdate AND l_receiptdate >= date '1994-01-01'
        AND l_receiptdate < date '1995-01-01') AS l
JOIN orders ON l_orderkey = o_orderkey
GROUP BY l_shipmode ORDER BY l_shipmode
""",
    13: """
SELECT c_count, count(*) AS custdist
FROM (SELECT c_custkey, count(o_custkey) AS c_count
      FROM customer
      LEFT JOIN (SELECT o_custkey FROM orders
                 WHERE o_comment NOT LIKE '%special%requests%') AS o
        ON c_custkey = o_custkey
      GROUP BY c_custkey) AS c_orders
GROUP BY c_count ORDER BY custdist DESC, c_count DESC
""",
    14: """
SELECT 100.0 * sum(CASE WHEN p_type LIKE 'PROMO%'
                        THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END)
       / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM (SELECT l_partkey, l_extendedprice, l_discount FROM lineitem
      WHERE l_shipdate >= date '1995-09-01'
        AND l_shipdate < date '1995-10-01') AS l
JOIN part ON l_partkey = p_partkey
""",
    15: """
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier
JOIN (SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount)) AS total_revenue
      FROM lineitem
      WHERE l_shipdate >= date '1996-01-01' AND l_shipdate < date '1996-04-01'
      GROUP BY l_suppkey HAVING total_revenue >= {scalar}) AS revenue0
  ON s_suppkey = l_suppkey
ORDER BY s_suppkey
""",
    16: """
SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp
JOIN (SELECT p_partkey, p_brand, p_type, p_size FROM part
      WHERE p_brand <> 'Brand#45' AND p_type NOT LIKE 'MEDIUM POLISHED%'
        AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)) AS p
  ON ps_partkey = p_partkey
WHERE ps_suppkey NOT IN (SELECT s_suppkey FROM supplier
                         WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
""",
    17: """
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem
JOIN (SELECT l_partkey, avg(l_quantity) AS avg_qty FROM lineitem
      WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_brand = 'Brand#23'
                          AND p_container = 'MED BOX')
      GROUP BY l_partkey) AS part_avg
  ON l_partkey = l_partkey
WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_brand = 'Brand#23'
                    AND p_container = 'MED BOX')
  AND l_quantity < 0.2 * avg_qty
""",
    18: """
SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice, sum_qty, c_name
FROM orders
JOIN (SELECT l_orderkey, sum(l_quantity) AS sum_qty FROM lineitem
      GROUP BY l_orderkey HAVING sum_qty > 300) AS big
  ON o_orderkey = l_orderkey
JOIN customer ON o_custkey = c_custkey
ORDER BY o_totalprice DESC, o_orderdate LIMIT 100
""",
    19: """
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM (SELECT l_partkey, l_quantity, l_extendedprice, l_discount FROM lineitem
      WHERE l_shipmode IN ('AIR', 'REG AIR')
        AND l_shipinstruct = 'DELIVER IN PERSON') AS l
JOIN part ON l_partkey = p_partkey
WHERE p_brand = 'Brand#12'
      AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
      AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5
   OR p_brand = 'Brand#23'
      AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
      AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10
   OR p_brand = 'Brand#34'
      AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
      AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15
""",
    20: """
SELECT s_name, s_address FROM supplier
WHERE s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    JOIN (SELECT l_partkey, l_suppkey, sum(l_quantity) AS sum_qty
          FROM lineitem
          WHERE l_shipdate >= date '1994-01-01'
            AND l_shipdate < date '1995-01-01'
          GROUP BY l_partkey, l_suppkey) AS shipped
      ON ps_partkey = l_partkey AND ps_suppkey = l_suppkey
    WHERE ps_partkey IN (SELECT p_partkey FROM part
                         WHERE p_name LIKE 'forest%')
      AND ps_availqty > 0.5 * sum_qty)
  AND s_nationkey IN (SELECT n_nationkey FROM nation WHERE n_name = 'CANADA')
ORDER BY s_name
""",
    21: """
SELECT s_name, count(*) AS numwait
FROM (SELECT l_orderkey, l_suppkey FROM lineitem
      WHERE l_receiptdate > l_commitdate
        AND l_orderkey IN (SELECT o_orderkey FROM orders
                           WHERE o_orderstatus = 'F')) AS l1
JOIN supplier ON l_suppkey = s_suppkey
JOIN (SELECT l_orderkey, count(DISTINCT l_suppkey) AS n_supp FROM lineitem
      GROUP BY l_orderkey) AS all_supp
  ON l_orderkey = l_orderkey
JOIN (SELECT l_orderkey, count(DISTINCT l_suppkey) AS n_late FROM lineitem
      WHERE l_receiptdate > l_commitdate GROUP BY l_orderkey) AS late_supp
  ON l_orderkey = l_orderkey
WHERE s_nationkey IN (SELECT n_nationkey FROM nation
                      WHERE n_name = 'SAUDI ARABIA')
  AND n_supp >= 2 AND n_late = 1
GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 100
""",
    22: """
SELECT cntrycode, count(*) AS numcust, sum(c_acctbal) AS totacctbal
FROM (SELECT substring(c_phone from 1 for 2) AS cntrycode, c_acctbal
      FROM customer
      WHERE substring(c_phone from 1 for 2)
              IN ('13', '31', '23', '29', '30', '18', '17')
        AND c_acctbal > {scalar}
        AND c_custkey NOT IN (SELECT o_custkey FROM orders)) AS custsale
GROUP BY cntrycode ORDER BY cntrycode
""",
}


def _query(number: int) -> Callable[[Runner], Batch]:
    def query(run: Runner) -> Batch:
        text = SQL[number]
        if number in SCALARS:
            (value,) = run(bind_select(SCALARS[number],
                                       SCHEMAS)).columns.values()
            text = text.format(scalar=repr(float(value[0])))
        return run(bind_select(text, SCHEMAS))

    return query


QUERIES: Dict[int, Callable[[Runner], Batch]] = {
    number: _query(number) for number in sorted(SQL)}

(q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16, q17,
 q18, q19, q20, q21, q22) = QUERIES.values()
