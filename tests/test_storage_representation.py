"""One owner of the storage representation.

A DECIMAL is stored as fixed-point int64 and seen by the engine as
float64; ``ColumnType`` alone converts between the two. Three checks:

* every write path into a DECIMAL column takes engine values -- integers
  and floats -- and a SELECT reads back exactly what was written, before
  and after update propagation (integers once came back divided by 100,
  and an ``UPDATE ... SET price = 70001`` stored 700.01);
* a ``DXchgHashSplit`` aligned with a table's partitioning hashes its
  keys as that table stores them, for every partition-key type (a DECIMAL
  key once hashed the engine float and lost three rows in four), and a
  literal that fixes the key prunes to the partition its row was written
  to;
* a source guard: no other module in ``src/`` decides the representation.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import numpy as np
import pytest

import repro
from repro.cluster import VectorHCluster
from repro.cluster.vectorh import DIRECT_APPEND_THRESHOLD
from repro.common.config import Config
from repro.common.types import DATE, DECIMAL, INT32, INT64, STRING
from repro.connector import vwload
from repro.engine.expressions import Col
from repro.mpp import plan as P
from repro.mpp.logical import LScan, LSelect
from repro.mpp.rewriter import ParallelRewriter
from repro.sql import execute_sql
from repro.storage import Column, TableSchema

INTS = [1, 2, 3, 4, 5, 7, 70001]
FLOATS = [0.01, 0.5, 2.25, 12.34, 70001.99]


# ----------------------------------------------------- DECIMAL write paths

def _cluster() -> VectorHCluster:
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    c.create_table(TableSchema(
        "t", [Column("k", INT64), Column("price", DECIMAL)],
        partition_key=("k",), n_partitions=4))
    return c


def _read_back(c) -> dict:
    out = execute_sql(c, "SELECT k, price FROM t")
    return dict(zip(out.columns["k"].tolist(),
                    out.columns["price"].tolist()))


def _assert_reads_back(c, expected: dict) -> None:
    """As written: from the blocks and PDTs, then once more after every
    PDT entry was propagated into the blocks."""
    assert _read_back(c) == expected
    c.propagate_updates(force=True)
    assert _read_back(c) == expected


def _sql_insert(c, keys, values):
    rows = zip(keys.tolist(), values.tolist())
    execute_sql(c, "INSERT INTO t VALUES "
                + ", ".join(f"({k}, {v!r})" for k, v in rows))


def _vwload(c, keys, values):
    rows = zip(keys.tolist(), values.tolist())
    c.hdfs.write_file("/in.csv", "".join(f"{k}|{v!r}\n" for k, v in rows)
                      .encode(), writer=c.workers[0])
    vwload(c, "t", ["/in.csv"])


WRITES = {
    "bulk_load": lambda c, k, v: c.bulk_load("t", {"k": k, "price": v}),
    "direct_append": lambda c, k, v: c.insert("t", {"k": k, "price": v}),
    "pdt_insert": lambda c, k, v: c.insert("t", {"k": k, "price": v},
                                           force_pdt=True),
    "sql_insert": _sql_insert,
    "vwload": _vwload,
}


@pytest.mark.parametrize("values", [INTS, FLOATS], ids=["int", "float"])
@pytest.mark.parametrize("path", sorted(WRITES))
def test_every_write_path_reads_back_the_engine_value(path, values):
    c = _cluster()
    # a loaded table first, so appends and PDT inserts land beside rows
    c.bulk_load("t", {"k": np.arange(100, 110),
                      "price": np.arange(10) * 1.5})
    expected = _read_back(c)
    n = DIRECT_APPEND_THRESHOLD if path == "direct_append" else len(values)
    keys = np.arange(n, dtype=np.int64)
    written = np.resize(np.array(values), n)
    WRITES[path](c, keys, written)
    if path == "direct_append":  # appended, not buffered in the PDTs
        assert c.tables["t"].total_rows(include_pdt=False) == n + 10
    expected.update(zip(keys.tolist(), written.tolist()))
    _assert_reads_back(c, expected)


@pytest.mark.parametrize("assignment, value", [
    ("70001", lambda k, price: 70001),
    ("700.5", lambda k, price: 700.5),
    ("price * 2", lambda k, price: price * 2),
    ("k", lambda k, price: k),
], ids=["int_literal", "float_literal", "expr_of_column", "int_column"])
def test_update_set_reads_back_the_engine_value(assignment, value):
    c = _cluster()
    c.bulk_load("t", {"k": np.arange(8),
                      "price": np.array(FLOATS + FLOATS[:3])})
    expected = _read_back(c)
    c.insert("t", {"k": np.array([8]), "price": np.array([3])})
    expected[8] = 3
    for k in (3, 8):  # a stable row and a row the PDT holds
        execute_sql(c, f"UPDATE t SET price = {assignment} WHERE k = {k}")
        expected[k] = value(k, expected[k])
    _assert_reads_back(c, expected)


# ------------------------------------------------------ aligned routing

KEY_TYPES = {
    "int32": (INT32, lambda n: np.arange(n, dtype=np.int32) * 3),
    "int64": (INT64, lambda n: np.arange(n, dtype=np.int64) * 7 - n),
    "date": (DATE, lambda n: 8000 + np.arange(n, dtype=np.int32)),
    "decimal": (DECIMAL, lambda n: np.arange(n) * 1.25),
    "string": (STRING, lambda n: np.array([f"key-{i}" for i in range(n)],
                                          dtype=object)),
}


@pytest.mark.parametrize("key_type", sorted(KEY_TYPES))
def test_aligned_split_routes_rows_to_their_partners(key_type):
    """``b`` is partitioned on another column, so the join reshuffles it
    with ``a``'s partition function; every row must meet its partners."""
    ctype, make = KEY_TYPES[key_type]
    n = 2000
    keys = make(n)
    rng = np.random.default_rng(11)
    probe = keys[rng.integers(0, n, n)]
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    c.create_table(TableSchema("a", [Column("ka", ctype), Column("x", INT64)],
                               partition_key=("ka",), n_partitions=8))
    c.create_table(TableSchema("b", [Column("id", INT64), Column("pb", ctype)],
                               partition_key=("id",), n_partitions=8))
    c.bulk_load("a", {"ka": keys, "x": np.arange(n)})
    c.bulk_load("b", {"id": np.arange(n), "pb": probe})
    sql = "SELECT count(*) AS n FROM a JOIN b ON ka = pb"
    plan = "\n".join(execute_sql(c, "EXPLAIN " + sql).columns["plan"])
    assert "DXchgHashSplit[pb ~a]" in plan
    left, right = Counter(keys.tolist()), Counter(probe.tolist())
    nested_loop = sum(m * right[key] for key, m in left.items())
    assert nested_loop == n
    assert execute_sql(c, sql).columns["n"].tolist() == [nested_loop]


# ------------------------------------------------------- literal -> pid

#: a key as the literal a bound WHERE carries (a SQL date literal binds
#: to its day number)
LITERALS = {"int": int, "float": float, "string": str}


@pytest.mark.parametrize("key_type, literal", [
    ("int32", "int"), ("int64", "int"), ("date", "int"),
    ("decimal", "int"), ("decimal", "float"), ("string", "string")])
def test_a_literal_prunes_to_the_partition_its_row_was_written_to(
        key_type, literal):
    """Half the keys are bulk loaded, half inserted through the PDTs; the
    partition the rewriter prunes ``ka = <literal>`` to must be the one
    holding the row, and the pruned scan must find it."""
    ctype, make = KEY_TYPES[key_type]
    keys = make(240)
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    c.create_table(TableSchema("a", [Column("ka", ctype), Column("x", INT64)],
                               partition_key=("ka",), n_partitions=8))
    c.bulk_load("a", {"ka": keys[:120], "x": np.arange(120)})
    c.insert("a", {"ka": keys[120:], "x": np.arange(120, 240)},
             force_pdt=True)
    stored = c.table("a")
    written = {key: pid for pid in range(8)
               for key in stored.scan_partition(pid, ["ka"]).columns["ka"]}
    assert len(written) == 240 and len(set(written.values())) == 8
    if literal == "int" and key_type == "decimal":  # whole values only
        written = {k: pid for k, pid in written.items() if k == int(k)}
    for i, (key, pid) in enumerate(sorted(written.items())):
        value = LITERALS[literal](key)
        plan = ParallelRewriter(c).plan(
            LSelect(LScan("a", ["x", "ka"]), Col("ka") == value))
        (scan,) = [n for n in plan.root.walk() if isinstance(n, P.PScan)]
        assert scan.partitions == (pid,), value
        if i % 10 == 0:
            assert c.query(plan).batch.n == 1, value


# ----------------------------------------------------------- source guard

SRC = pathlib.Path(repro.__file__).parent
OWNER = pathlib.Path("common/types.py")

#: functions only the owner may define
OWNED = ("_decimal_scale", "to_storage_columns", "_from_storage")

#: (file, function) defined outside the owner anyway, with the reason
DEFINED_ALLOWED = {
    ("storage/table.py", "to_storage_columns"):
        "benchmarks/e2e/probes.py calls it and that file may not change; "
        "it maps ColumnType.to_storage over a dict of columns and "
        "decides nothing itself",
}


def _decisions(text: str, rel: str = "") -> list:
    """What in one module's source decides the storage representation."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare) and any(
                isinstance(c, ast.Constant) and c.value == "decimal"
                for part in [node.left, *node.comparators]
                for c in ast.walk(part)):
            found.append(f"{rel}:{node.lineno}: compares with 'decimal'")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Constant) and node.left.value == 10
              and isinstance(node.right, ast.Attribute)
              and node.right.attr == "scale"):
            found.append(f"{rel}:{node.lineno}: 10 ** .scale")
        elif isinstance(node, ast.FunctionDef) and node.name in OWNED:
            if (rel, node.name) in DEFINED_ALLOWED:
                calls = {n.func.attr for n in ast.walk(node)
                         if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Attribute)}
                if "to_storage" in calls:
                    continue
            found.append(f"{rel}:{node.lineno}: defines {node.name}")
    return found


def test_no_module_but_column_type_decides_the_storage_representation():
    offenders = [
        hit for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC) != OWNER
        for hit in _decisions(path.read_text(),
                              path.relative_to(SRC).as_posix())]
    assert offenders == []


def test_the_guard_sees_each_kind_of_decision():
    bad = (
        "def _decimal_scale(ctype):\n"
        "    if ctype.name == 'decimal':\n"
        "        return 10 ** ctype.scale\n"
        "def f(t):\n"
        "    return t.name in ('int32', 'decimal')\n"
        "def to_storage_columns(cols):\n"
        "    return cols\n")
    assert len(_decisions(bad, "storage/table.py")) == 5
    delegate = ("def to_storage_columns(schema, cols):\n"
                "    return {n: schema.ctype(n).to_storage(v)\n"
                "            for n, v in cols.items()}\n")
    assert _decisions(delegate, "storage/table.py") == []
    assert len(_decisions(delegate, "sql/binder.py")) == 1
