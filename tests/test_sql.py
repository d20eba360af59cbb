"""Tests for the SQL front-end: lexer, parser, binder, end-to-end."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.errors import SqlError
from repro.common.types import DATE, DECIMAL, INT64, STRING
from repro.cluster import VectorHCluster
from repro.mpp.logical import LJoin
from repro.sql import SqlLexer, SqlParser, execute_sql
from repro.sql import parser as ast
from repro.sql.binder import _SelectBinder
from repro.storage import Column, TableSchema


@pytest.fixture()
def db():
    c = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "emp", [Column("id", INT64), Column("name", STRING),
                Column("dept", INT64), Column("salary", DECIMAL),
                Column("hired", DATE)],
        primary_key=("id",), partition_key=("id",), n_partitions=4))
    c.create_table(TableSchema(
        "dept", [Column("dept_id", INT64), Column("dept_name", STRING)]))
    rng = np.random.default_rng(0)
    n = 500
    c.bulk_load("emp", {
        "id": np.arange(n),
        "name": np.array([f"emp{i}" for i in range(n)], object),
        "dept": rng.integers(0, 5, n),
        "salary": np.round(rng.uniform(30_000, 90_000, n), 2),
        "hired": rng.integers(9000, 12000, n).astype(np.int32),
    })
    c.bulk_load("dept", {
        "dept_id": np.arange(5),
        "dept_name": np.array([f"D{i}" for i in range(5)], object),
    })
    return c


class TestLexer:
    def test_keywords_and_names(self):
        tokens = SqlLexer("SELECT Name FROM emp").tokens()
        assert [t.kind for t in tokens] == ["keyword", "name", "keyword",
                                            "name", "eof"]
        assert tokens[0].value == "select"
        assert tokens[1].value == "Name"

    def test_strings_and_numbers(self):
        tokens = SqlLexer("'a b' 3.5 42").tokens()
        assert tokens[0] == ("string", "a b") or tokens[0].value == "a b"
        assert tokens[1].value == "3.5"
        assert tokens[2].value == "42"

    def test_exponent_numbers(self):
        # a float's repr, as a first statement's scalar goes into a text
        values = [SqlParser(f"SELECT {text} AS x FROM t").parse()
                  .items[0].expr.value for text in ("-1e-06", "2.5E3")]
        assert values == [-1e-06, 2500.0]

    def test_operators(self):
        tokens = SqlLexer("a <> b <= c >= d != e").tokens()
        ops = [t.value for t in tokens if t.kind == "op"]
        assert ops == ["<>", "<=", ">=", "!="]

    def test_garbage_rejected(self):
        with pytest.raises(SqlError):
            SqlLexer("select ~").tokens()


class TestParser:
    def test_select_shape(self):
        stmt = SqlParser(
            "SELECT dept, count(*) AS n FROM emp WHERE salary > 50000 "
            "GROUP BY dept HAVING n > 2 ORDER BY n DESC LIMIT 3"
        ).parse()
        assert isinstance(stmt, ast.SelectStatement)
        assert stmt.group_by == ["dept"]
        assert stmt.order_by == [("n", False)]
        assert stmt.limit == 3
        assert stmt.having is not None

    def test_join_parsing(self):
        stmt = SqlParser(
            "SELECT name FROM emp JOIN dept ON dept = dept_id"
        ).parse()
        assert stmt.joins[0].table == "dept"

    def test_between_in_like(self):
        stmt = SqlParser(
            "SELECT id FROM emp WHERE salary BETWEEN 1 AND 2 "
            "AND dept IN (1, 2) AND name NOT LIKE 'x%'"
        ).parse()
        assert stmt.where is not None

    def test_date_literal(self):
        stmt = SqlParser(
            "SELECT id FROM emp WHERE hired < DATE '1995-01-01'"
        ).parse()
        assert isinstance(stmt.where.right, ast.Literal)

    def test_insert(self):
        stmt = SqlParser(
            "INSERT INTO emp (id, name) VALUES (1, 'x'), (2, 'y')"
        ).parse()
        assert stmt.columns == ["id", "name"]
        assert len(stmt.rows) == 2

    def test_update_delete(self):
        upd = SqlParser("UPDATE emp SET salary = salary * 1.1 "
                        "WHERE dept = 2").parse()
        assert upd.assignments[0][0] == "salary"
        dele = SqlParser("DELETE FROM emp WHERE id < 5").parse()
        assert dele.table == "emp"

    def test_syntax_error(self):
        with pytest.raises(SqlError):
            SqlParser("SELECT FROM emp").parse()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            SqlParser("SELECT id FROM emp banana extra").parse()


class TestExecution:
    def test_simple_select(self, db):
        out = execute_sql(db, "SELECT id, name FROM emp WHERE id < 3 "
                              "ORDER BY id")
        assert list(out.columns["id"]) == [0, 1, 2]
        assert out.columns["name"][0] == "emp0"

    def test_expression_projection(self, db):
        out = execute_sql(db, "SELECT salary * 2 AS double_pay FROM emp "
                              "WHERE id = 10")
        assert out.n == 1

    def test_group_by_aggregates(self, db):
        out = execute_sql(db, "SELECT dept, count(*) AS n, avg(salary) "
                              "AS pay FROM emp GROUP BY dept ORDER BY dept")
        assert out.n == 5
        assert int(sum(out.columns["n"])) == 500

    def test_having(self, db):
        out = execute_sql(db, "SELECT dept, count(*) AS n FROM emp "
                              "GROUP BY dept HAVING n > 200")
        assert (out.columns["n"] > 200).all() if out.n else True

    def test_join(self, db):
        out = execute_sql(db, "SELECT dept_name, count(*) AS n FROM emp "
                              "JOIN dept ON dept = dept_id "
                              "GROUP BY dept_name ORDER BY dept_name")
        assert out.n == 5
        assert out.columns["dept_name"][0] == "D0"

    def test_top_n(self, db):
        out = execute_sql(db, "SELECT id, salary FROM emp "
                              "ORDER BY salary DESC LIMIT 5")
        assert out.n == 5
        assert (np.diff(out.columns["salary"]) <= 0).all()

    def test_case_expression(self, db):
        out = execute_sql(db, "SELECT sum(CASE WHEN dept = 0 THEN 1 "
                              "ELSE 0 END) AS zeros FROM emp")
        direct = execute_sql(db, "SELECT count(*) AS n FROM emp "
                                 "WHERE dept = 0")
        assert out.columns["zeros"][0] == direct.columns["n"][0]

    def test_insert_and_select(self, db):
        n = execute_sql(db, "INSERT INTO emp VALUES "
                            "(9001, 'new', 1, 55000.0, DATE '2001-02-03')")
        assert n == 1
        out = execute_sql(db, "SELECT name FROM emp WHERE id = 9001")
        assert out.columns["name"][0] == "new"

    def test_delete(self, db):
        deleted = execute_sql(db, "DELETE FROM emp WHERE id < 10")
        assert deleted == 10
        out = execute_sql(db, "SELECT count(*) AS n FROM emp")
        assert out.columns["n"][0] == 490

    def test_update(self, db):
        hit = execute_sql(db, "UPDATE emp SET salary = 0 WHERE dept = 3")
        out = execute_sql(db, "SELECT sum(salary) AS s FROM emp "
                              "WHERE dept = 3")
        assert hit > 0
        assert out.columns["s"][0] == 0

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(SqlError):
            execute_sql(db, "SELECT name, count(*) FROM emp GROUP BY dept")

    def test_delete_without_where_rejected(self, db):
        with pytest.raises(SqlError):
            execute_sql(db, "DELETE FROM emp")

    def test_extract_year(self, db):
        out = execute_sql(db, "SELECT extract(year FROM hired) AS y, "
                              "count(*) AS n FROM emp GROUP BY y "
                              "ORDER BY y")
        assert out.n >= 2
        assert 1994 <= out.columns["y"][0] <= 2003

    def test_substring(self, db):
        out = execute_sql(db, "SELECT substring(name FROM 1 FOR 3) AS p "
                              "FROM emp WHERE id = 0")
        assert out.columns["p"][0] == "emp"

    def test_extract_in_where(self, db):
        out = execute_sql(db, "SELECT count(*) AS n FROM emp "
                              "WHERE extract(year FROM hired) = 1995")
        direct = execute_sql(
            db, "SELECT count(*) AS n FROM emp WHERE "
                "hired >= DATE '1995-01-01' AND hired < DATE '1996-01-01'")
        assert out.columns["n"][0] == direct.columns["n"][0]

    def test_in_transaction(self, db):
        t = db.begin()
        execute_sql(db, "INSERT INTO emp VALUES "
                        "(9002, 'tx', 1, 1.0, DATE '2000-01-01')", trans=t)
        visible = execute_sql(db, "SELECT count(*) AS n FROM emp")
        assert visible.columns["n"][0] == 500  # not yet committed
        t.commit()
        after = execute_sql(db, "SELECT count(*) AS n FROM emp")
        assert after.columns["n"][0] == 501


def _emp(db):
    """The emp table as numpy columns (the hand-computed answers' input)."""
    out = execute_sql(db, "SELECT id, dept, salary FROM emp ORDER BY id")
    return {name: np.asarray(col) for name, col in out.columns.items()}


class TestGrammarPieces:
    """The pieces TPC-H is written with: each against a hand-computed
    answer."""

    def test_group_by_output_follows_the_select_list(self, db):
        sql = "SELECT sum(salary) AS s, dept FROM emp GROUP BY dept"
        assert execute_sql(db, sql).column_names == ["s", "dept"]
        conn = db.serve().connect()
        assert conn.simple_query(sql).column_names == ["s", "dept"]

    def test_composite_join_keys(self, db):
        db.create_table(TableSchema(
            "pay", [Column("p_id", INT64), Column("p_dept", INT64),
                    Column("bonus", INT64)]))
        emp = _emp(db)
        ids = np.arange(100)
        # an odd id names another department: only even ids match both
        dept = emp["dept"][ids] + ids % 2
        db.bulk_load("pay", {"p_id": ids, "p_dept": dept, "bonus": ids * 3})
        out = execute_sql(db, "SELECT id, bonus FROM emp "
                              "JOIN pay ON id = p_id AND p_dept = dept "
                              "ORDER BY id")
        assert out.columns["id"].tolist() == list(range(0, 100, 2))
        assert out.columns["bonus"].tolist() == list(range(0, 300, 6))

    def test_expressions_over_aggregates(self, db):
        emp = _emp(db)
        out = execute_sql(db, "SELECT dept, 100 * sum(salary) / count(*) "
                              "AS mean100, max(salary) - min(salary) AS "
                              "spread FROM emp GROUP BY dept ORDER BY dept")
        assert out.column_names == ["dept", "mean100", "spread"]
        for d, mean100, spread in zip(*out.columns.values()):
            pay = emp["salary"][emp["dept"] == d]
            assert mean100 == pytest.approx(100 * pay.mean())
            assert spread == pytest.approx(pay.max() - pay.min())

    def test_derived_tables(self, db):
        emp = _emp(db)
        out = execute_sql(db, "SELECT dept_name, n FROM dept "
                              "JOIN (SELECT dept, count(*) AS n FROM emp "
                              "WHERE salary > 50000 GROUP BY dept) AS d "
                              "ON dept_id = dept ORDER BY dept_name")
        rich = emp["dept"][emp["salary"] > 50000]
        assert out.columns["dept_name"].tolist() == [f"D{i}" for i in
                                                     range(5)]
        assert out.columns["n"].tolist() == [int((rich == i).sum())
                                             for i in range(5)]
        big = execute_sql(db, "SELECT count(*) AS k FROM (SELECT dept, "
                              "count(*) AS n FROM emp GROUP BY dept) AS d "
                              "WHERE n > 100")
        sizes = np.bincount(emp["dept"])
        assert big.columns["k"][0] == (sizes > 100).sum()

    def test_in_and_not_in_subqueries(self, db):
        emp = _emp(db)
        sub = "(SELECT dept_id FROM dept WHERE dept_name IN ('D1', 'D3'))"
        chosen = np.isin(emp["dept"], [1, 3])
        for op, expected in (("IN", chosen), ("NOT IN", ~chosen)):
            out = execute_sql(db, f"SELECT count(*) AS n FROM emp "
                                  f"WHERE salary > 40000 AND dept {op} {sub}")
            assert out.columns["n"][0] == (expected
                                           & (emp["salary"] > 40000)).sum()
        plan = _SelectBinder(db, SqlParser(
            f"SELECT id FROM emp WHERE dept NOT IN {sub}").parse()).plan()
        joins = [n for n in plan.walk() if isinstance(n, LJoin)]
        assert [(j.how, j.probe_keys, j.build_keys) for j in joins] == [
            ("anti", ["dept"], ["dept_id"])]

    def test_count_of_a_left_join_column_counts_matches(self, db):
        execute_sql(db, "INSERT INTO dept VALUES (7, 'D7')")
        out = execute_sql(db, "SELECT dept_id, count(id) AS n FROM dept "
                              "LEFT JOIN emp ON dept_id = dept "
                              "GROUP BY dept_id ORDER BY dept_id")
        sizes = np.bincount(_emp(db)["dept"]).tolist()
        assert out.columns["dept_id"].tolist() == [0, 1, 2, 3, 4, 7]
        assert out.columns["n"].tolist() == sizes + [0]

    @pytest.mark.parametrize("sql", [
        # a correlated subquery: name is emp's, not dept's
        "SELECT id FROM emp WHERE dept IN "
        "(SELECT dept_id FROM dept WHERE dept_name = name)",
        "SELECT id FROM emp JOIN (SELECT dept_id FROM dept "
        "WHERE dept_id = dept) AS d ON dept = dept_id",
        # a column on both sides of a join that is not a key
        "SELECT id, salary FROM emp JOIN (SELECT dept, salary FROM emp) AS e "
        "ON dept = dept",
        # a derived table's WHERE column rides along, and the outer
        # side reads a column of that name
        "SELECT id, salary FROM emp JOIN (SELECT dept FROM emp "
        "WHERE salary > 0) AS e ON dept = dept",
        # a LEFT JOIN's misses carry no NULL to skip
        "SELECT dept_id, count(DISTINCT id) AS n FROM dept "
        "LEFT JOIN emp ON dept_id = dept GROUP BY dept_id",
        # an IN subquery selects one column
        "SELECT id FROM emp WHERE dept IN (SELECT dept_id, dept_name "
        "FROM dept)",
    ])
    def test_what_cannot_bind_raises(self, db, sql):
        with pytest.raises(SqlError):
            execute_sql(db, sql)

    def test_a_write_to_a_subquerys_table_invalidates_the_result(self, db):
        conn = db.serve().connect()
        sql = ("SELECT count(*) AS n FROM emp WHERE dept IN "
               "(SELECT dept_id FROM dept WHERE dept_name = 'D9')")
        assert conn.simple_query(sql).columns["n"][0] == 0
        conn.simple_query("INSERT INTO dept VALUES (2, 'D9')")
        assert conn.simple_query(sql).columns["n"][0] == \
            (_emp(db)["dept"] == 2).sum()
