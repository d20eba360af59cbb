"""Plan identity: deriving scan triples from the bound WHERE plans every
SQL shape the end-to-end benchmark sends as the binder's AST triples did.

``plan_identity.json`` holds, for one instance of each shape (and the
``$1`` template of two, bound), what the planner made of it before the
triples were derived from the plan: every scan's triples and partitions,
every fragment signature, the EXPLAIN text; and for the single-row DML
statements, the rows changed and each partition scan with its triples.
Two differences are expected and named: Q12's ``l_shipmode IN (...)``
becomes a triple of its ``lineitem`` scan (an ``IN`` gave none before),
and Q10, which lists ``revenue`` before two of its group keys, gets a
Project over its aggregation that puts the columns in SELECT-list order
(the aggregation's own order was the group keys first).
"""

from __future__ import annotations

import ast
import json
import pathlib
import re

import pytest

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.mpp import plan as P
from repro.mpp.rewriter import ParallelRewriter
from repro.sql import execute_sql
from repro.sql.binder import _SelectBinder
from repro.sql.parser import SqlParser
from repro.storage.table import StoredTable
from repro.tpch import tpch_schemas
from repro.tpch.schema import LOAD_ORDER

FROZEN = json.loads(
    (pathlib.Path(__file__).parent / "plan_identity.json").read_text())

#: the binder numbers the names it makes up; the frozen text was taken
#: when it numbered them per process
_AUTO_NAME = re.compile(r"\b(__agg_in|col|sum|count|avg)_\d+\b")

#: the frozen signatures were taken when a signature dropped the number
#: of an aggregate's generated argument name (now it is per statement)
_AGG_ARG = re.compile(r"\b__agg_in_\d+\b")

#: the one allowed change: Q12's IN list is a triple of the lineitem scan
Q12_IN = re.compile(r"l_shipmode IN (\[[^]]*\])")


@pytest.fixture(scope="module")
def cluster(tpch_data):
    """A fresh cluster: no feedback, so every estimate is static."""
    c = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    schemas = tpch_schemas(n_partitions=6)
    for name in LOAD_ORDER:
        c.create_table(schemas[name])
        c.bulk_load(name, tpch_data[name])
    return c


def _described(qplan) -> dict:
    return {
        "scans": [[n.table, repr(n.skip_predicates), repr(n.partitions)]
                  for n in qplan.root.walk() if isinstance(n, P.PScan)],
        "signatures": [_AGG_ARG.sub("__agg_in", qplan.annotations[n].signature)
                       for n in qplan.root.walk() if n in qplan.annotations],
        "plan_text": _AUTO_NAME.sub(r"\1_N", qplan.pretty()),
    }


#: the Project Q10 gains: SELECT-list order over the final aggregation
Q10_ORDER = ("Project[c_custkey, c_name, revenue, c_acctbal, n_name]  "
             "<partitioned on c_custkey,c_name,c_acctbal,n_name>  est=1072")


def _expected(name: str, frozen: dict) -> dict:
    expected = dict(frozen, plan_text=_AUTO_NAME.sub(r"\1_N",
                                                     frozen["plan_text"]))
    if name == "q10":
        # the Project sits under the partial TopN, everything below it
        # one level deeper; it signs as its child, the aggregation
        head, tail = expected["plan_text"].split("\n      Aggr(final)", 1)
        tail = "\n".join("  " + line for line in
                         ("      Aggr(final)" + tail).split("\n"))
        expected["plan_text"] = f"{head}\n      {Q10_ORDER}\n{tail}"
        expected["signatures"] = (frozen["signatures"][:1]
                                  + frozen["signatures"])
        return expected
    if name != "q12":
        return expected
    modes = tuple(ast.literal_eval(
        Q12_IN.search(frozen["plan_text"]).group(1)))
    triple = ("l_shipmode", "in", modes)
    expected["scans"] = [
        [t, f"[{triple!r}, {triples[1:]}" if t == "lineitem" else triples, p]
        for t, triples, p in frozen["scans"]]
    expected["signatures"] = [
        s.replace("scan(lineitem;", f"scan(lineitem;l_shipmodein{modes!r},")
        for s in frozen["signatures"]]
    # the extra triple lowers the estimates above the scan; the plan's
    # shape stays as it was
    expected["plan_text"] = re.sub(r"est=\d+", "est=?",
                                   expected["plan_text"])
    return expected


@pytest.mark.parametrize("name", sorted(FROZEN["statements"]))
def test_every_shape_plans_as_before(cluster, name):
    frozen = FROZEN["statements"][name]
    logical = _SelectBinder(cluster, SqlParser(frozen["sql"]).parse()).plan()
    qplan = ParallelRewriter(cluster).plan(logical)
    got = _described(qplan)
    if name == "q12":
        got["plan_text"] = re.sub(r"est=\d+", "est=?", got["plan_text"])
    expected = _expected(name, {k: frozen[k] for k in got})
    assert got == expected
    if "params" in frozen:
        assert _described(qplan.bind(frozen["params"])) == _expected(
            name, frozen["bound"])


@pytest.mark.parametrize("name", sorted(FROZEN["dml"]))
def test_single_row_dml_reaches_the_same_partitions(
        cluster, monkeypatch, name):
    frozen = FROZEN["dml"][name]
    seen = []
    original = StoredTable.scan_pieces

    def spy(self, pid, columns, predicates=(), *args, **kwargs):
        seen.append([self.schema.name, pid, repr(list(predicates))])
        return original(self, pid, columns, predicates, *args, **kwargs)

    monkeypatch.setattr(StoredTable, "scan_pieces", spy)
    assert execute_sql(cluster, frozen["sql"]) == frozen["rows"]
    assert seen == frozen["scans"]
