"""Binder: SQL AST -> logical plans / DML calls on a VectorHCluster."""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List

import numpy as np

from repro.common.errors import SqlError
from repro.engine.expressions import (
    Between, Case, Col, Const, Expr, InList, Like, Not, Param, bound_value,
)
from repro.mpp.logical import (
    LAggr, LJoin, LLimit, LProject, LScan, LSelect, LSort, LTopN,
    LogicalPlan, derive_scan_triples,
)
from repro.mpp.rewriter import ParallelRewriter
from repro.sql import parser as ast
from repro.sql.parser import SqlParser


def _bind_expr(node) -> Expr:
    if isinstance(node, ast.ColumnRef):
        return Col(node.name)
    if isinstance(node, ast.Literal):
        return Const(node.value)
    if isinstance(node, ast.BinaryOp):
        left, right = _bind_expr(node.left), _bind_expr(node.right)
        table = {
            "+": lambda: left + right, "-": lambda: left - right,
            "*": lambda: left * right, "/": lambda: left / right,
            "=": lambda: left == right, "<>": lambda: left != right,
            "<": lambda: left < right, "<=": lambda: left <= right,
            ">": lambda: left > right, ">=": lambda: left >= right,
            "and": lambda: left & right, "or": lambda: left | right,
        }
        maker = table.get(node.op)
        if maker is None:
            raise SqlError(f"unsupported operator {node.op}")
        return maker()
    if isinstance(node, ast.UnaryNot):
        return Not(_bind_expr(node.child))
    if isinstance(node, ast.BetweenOp):
        expr = Between(_bind_expr(node.child),
                       _literal(node.low), _literal(node.high))
        return Not(expr) if node.negate else expr
    if isinstance(node, ast.InOp):
        expr = InList(_bind_expr(node.child), [_raw(v) for v in node.values])
        return Not(expr) if node.negate else expr
    if isinstance(node, ast.LikeOp):
        return Like(_bind_expr(node.child), node.pattern, node.negate)
    if isinstance(node, ast.CaseOp):
        return Case(_bind_expr(node.cond), _bind_expr(node.then),
                    _bind_expr(node.otherwise))
    if isinstance(node, ast.ExtractYearOp):
        from repro.engine.expressions import ExtractYear
        return ExtractYear(_bind_expr(node.child))
    if isinstance(node, ast.SubstringOp):
        from repro.engine.expressions import Substr
        return Substr(_bind_expr(node.child), node.start, node.length)
    if isinstance(node, ast.Parameter):
        return Param(node.index)  # a slot: QueryPlan.bind fills it
    raise SqlError(f"cannot bind expression node {node!r}")


def _literal(node):
    """The value of a literal, or the slot of a ``$N``."""
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.Parameter):
        return Param(node.index)
    raise SqlError("BETWEEN bounds must be literals")


def _raw(value):
    """A plain value the parser stored (IN list, VALUES row), a ``$N``
    in it the slot."""
    return Param(value.index) if isinstance(value, ast.Parameter) else value


def _collect_columns(node, out: List[str]) -> None:
    if isinstance(node, ast.ColumnRef):
        out.append(node.name)
    elif isinstance(node, ast.AggCall):
        if node.arg is not None:
            _collect_columns(node.arg, out)
    elif isinstance(node, ast.BinaryOp):
        _collect_columns(node.left, out)
        _collect_columns(node.right, out)
    elif isinstance(node, (ast.UnaryNot, ast.LikeOp, ast.InOp,
                           ast.ExtractYearOp, ast.SubstringOp)):
        _collect_columns(node.child, out)
    elif isinstance(node, ast.BetweenOp):
        _collect_columns(node.child, out)
        _collect_columns(node.low, out)
        _collect_columns(node.high, out)
    elif isinstance(node, ast.CaseOp):
        for child in (node.cond, node.then, node.otherwise):
            _collect_columns(child, out)


def _has_aggregates(items) -> bool:
    return any(isinstance(item.expr, ast.AggCall) for item in items)


class _SelectBinder:
    def __init__(self, cluster, stmt: ast.SelectStatement):
        self.cluster = cluster
        self.stmt = stmt
        # generated names count per statement: a text binds the same
        # names every time
        self._out_names = itertools.count(1)
        self._arg_names = itertools.count(1)

    def plan(self) -> LogicalPlan:
        """The statement's logical plan; a ``$N`` in it is a slot
        (:class:`~repro.engine.expressions.Param`). The AST is not
        changed: ``SELECT *`` expands into a new statement."""
        stmt = self.stmt
        if stmt.star:
            stmt = self.stmt = dataclasses.replace(
                stmt, items=self._expand_star(), star=False)
        needed: List[str] = []
        for item in stmt.items:
            _collect_columns(item.expr, needed)
        if stmt.where is not None:
            _collect_columns(stmt.where, needed)
        needed.extend(stmt.group_by)
        for key, _ in stmt.order_by:
            pass  # order keys are output names, resolved later
        join_cols = []
        for join in stmt.joins:
            join_cols.extend([join.left_key, join.right_key])
        needed.extend(join_cols)
        needed = list(dict.fromkeys(needed))

        plan = self._from_clause(needed)
        if stmt.where is not None:
            plan = LSelect(plan, _bind_expr(stmt.where))
        plan = self._order_joins(plan, needed)
        plan = self._projection_and_aggregation(plan)
        if stmt.having is not None:
            plan = LSelect(plan, _bind_expr(stmt.having))
        if stmt.order_by:
            keys = [k for k, _ in stmt.order_by]
            asc = [a for _, a in stmt.order_by]
            if stmt.limit is not None:
                return LTopN(plan, keys, stmt.limit, asc)
            return LSort(plan, keys, asc)
        if stmt.limit is not None:
            return LLimit(plan, stmt.limit)
        return plan

    def _expand_star(self) -> List[ast.SelectItem]:
        """SELECT *: one item per column of the FROM/JOIN tables."""
        items: List[ast.SelectItem] = []
        seen = set()
        stmt = self.stmt
        for t in [stmt.table] + [j.table for j in stmt.joins]:
            for name in self.cluster.table(t).schema.column_names:
                if name not in seen:
                    seen.add(name)
                    items.append(ast.SelectItem(ast.ColumnRef(name), None))
        return items

    def _from_clause(self, needed: List[str], joins=None) -> LogicalPlan:
        """The FROM table joined left-deep with ``joins`` (the written
        JOINs by default), each scan reading the ``needed`` columns its
        table holds."""
        stmt = self.stmt
        plan: LogicalPlan = self._scan(stmt.table, needed)
        for join in stmt.joins if joins is None else joins:
            build = self._scan(join.table, needed)
            # ON a = b: figure out which side each key belongs to
            build_schema = self.cluster.table(join.table).schema
            if join.left_key in build_schema.column_names:
                bk, pk = join.left_key, join.right_key
            else:
                bk, pk = join.right_key, join.left_key
            plan = LJoin(build=build, probe=plan, build_keys=[bk],
                         probe_keys=[pk], how=join.how)
        return plan

    def _scan(self, table: str, needed: List[str]) -> LScan:
        schema = self.cluster.table(table).schema
        return LScan(table, [c for c in needed if c in schema.column_names])

    def _order_joins(self, plan: LogicalPlan,
                     needed: List[str]) -> LogicalPlan:
        """Cost-based join order for pure star queries: ``plan`` (the
        written JOIN chain, under the WHERE if there is one) over the
        cheapest chain.

        The written JOIN order builds a left-deep chain where every build
        side is joined against the running probe; when the feedback store
        has *measured* cardinalities for the dimension scans, stacking
        the smallest dimension innermost shrinks every intermediate
        result. Only fires for all-inner star joins (every ON clause
        keys back to the FROM table), and only when at least one scan
        estimate is feedback-backed -- cold plans keep the written order
        bit-for-bit, which keeps planning deterministic. A dimension's
        scan is estimated with the triples the WHERE gives it.
        """
        stmt = self.stmt
        joins = stmt.joins
        if len(joins) < 2 or any(j.how != "inner" for j in joins):
            return plan
        base_cols = set(self.cluster.table(stmt.table).schema.column_names)
        for join in joins:
            build_cols = self.cluster.table(join.table).schema.column_names
            probe_key = (join.right_key if join.left_key in build_cols
                         else join.left_key)
            if probe_key not in base_cols:
                return plan  # not a star: keep the written order
        rewriter = ParallelRewriter(self.cluster)
        scans = {node.table: node
                 for node in derive_scan_triples(plan).walk()
                 if isinstance(node, LScan)}
        estimates = []
        any_feedback = False
        for join in joins:
            rows, source = rewriter.estimate_with_source(scans[join.table])
            any_feedback = any_feedback or source == "feedback"
            estimates.append(rows)
        if not any_feedback:
            return plan
        order = [j for _, j in sorted(zip(estimates, joins),
                                      key=lambda pair: pair[0])]
        chain = self._from_clause(needed, order)
        return chain if stmt.where is None else LSelect(chain,
                                                        plan.predicate)

    def _projection_and_aggregation(self, plan: LogicalPlan) -> LogicalPlan:
        stmt = self.stmt
        if not (_has_aggregates(stmt.items) or stmt.group_by):
            outputs = {}
            for item in stmt.items:
                name = item.alias or self._default_name(item.expr)
                outputs[name] = _bind_expr(item.expr)
            return LProject(plan, outputs)

        aggregates = []
        pre_outputs: Dict[str, Expr] = {
            g: Col(g) for g in stmt.group_by
        }
        for item in stmt.items:
            if isinstance(item.expr, ast.AggCall):
                call = item.expr
                name = item.alias or f"{call.func}_{next(self._out_names)}"
                if call.arg is None:
                    aggregates.append((name, "count", None))
                else:
                    arg_name = f"__agg_in_{next(self._arg_names)}"
                    pre_outputs[arg_name] = _bind_expr(call.arg)
                    func = ("count_distinct"
                            if call.distinct and call.func == "count"
                            else call.func)
                    aggregates.append((name, func, Col(arg_name)))
            elif isinstance(item.expr, ast.ColumnRef):
                if item.expr.name not in stmt.group_by:
                    raise SqlError(
                        f"column {item.expr.name} not in GROUP BY"
                    )
            elif item.alias in stmt.group_by:
                # computed group key, e.g. GROUP BY extract(year ...) alias
                pre_outputs[item.alias] = _bind_expr(item.expr)
            else:
                raise SqlError(
                    "select items must be group keys or aggregates"
                )
        return LAggr(LProject(plan, pre_outputs), stmt.group_by, aggregates)

    def _default_name(self, expr) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        return f"col_{next(self._out_names)}"


def execute_sql(cluster, text: str, trans=None):
    """Parse and run one SQL statement; returns a Batch (SELECT) or the
    affected row count (DML).

    The whole statement runs under an ``sql`` trace span (parse -> bind
    -> the query/DML lifecycle); fetch it afterwards from
    ``cluster.tracer.last_trace``.
    """
    tracer = cluster.tracer
    with tracer.span("sql", statement=text.strip()[:120]):
        return _execute_sql(cluster, text, trans, tracer)


def _execute_sql(cluster, text: str, trans, tracer):
    with tracer.span("parse"):
        stmt = parse_simple(text)
    return execute_statement(cluster, stmt, trans=trans, tracer=tracer)


def parse_simple(text: str):
    """Parse one statement that runs as written: a ``$N`` in it has no
    value to take (only a prepared statement's Bind gives one)."""
    parser = SqlParser(text)
    stmt = parser.parse()
    if parser.params:
        raise SqlError(
            f"unbound parameter ${min(parser.params)}: prepared statements "
            f"must be bound (Bind) before execution")
    return stmt


def execute_statement(cluster, stmt, params=(), trans=None, tracer=None):
    """Run an already-parsed statement AST. A ``$N`` in DML or EXPLAIN
    takes ``params[N-1]`` (a slot without a value raises ``PlanError``);
    the server runs a prepared SELECT through its plan template."""
    if tracer is None:
        from repro.obs import NULL_TRACER
        tracer = NULL_TRACER
    if isinstance(stmt, ast.SelectStatement):
        with tracer.span("bind"):
            plan = _SelectBinder(cluster, stmt).plan()
        return cluster.query(plan, trans=trans).batch
    if isinstance(stmt, ast.ExplainStatement):
        with tracer.span("bind"):
            plan = _SelectBinder(cluster, stmt.select).plan()
        # the plan an Execute of the statement runs with these values
        qplan = ParallelRewriter(cluster).plan(plan).bind(params)
        if stmt.analyze:
            text, _result = cluster.explain_analyze(qplan, trans=trans)
        else:
            text = qplan.pretty()
        from repro.engine.batch import Batch
        lines = text.split("\n")
        arr = np.empty(len(lines), dtype=object)
        arr[:] = lines
        return Batch({"plan": arr}, len(lines))
    if isinstance(stmt, ast.InsertStatement):
        schema = cluster.tables[stmt.table].schema
        columns = list(stmt.columns) or schema.column_names
        if any(len(row) != len(columns) for row in stmt.rows):
            raise SqlError("VALUES row width does not match column list")
        arrays = {name: schema.ctype(name).engine_array(
                      [bound_value(_raw(row[i]), params) for row in stmt.rows])
                  for i, name in enumerate(columns)}
        cluster.insert(stmt.table, arrays, trans=trans, force_pdt=True)
        return len(stmt.rows)
    if isinstance(stmt, ast.DeleteStatement):
        if stmt.where is None:
            raise SqlError("DELETE without WHERE is not supported")
        return cluster.delete_where(
            stmt.table, _bind_expr(stmt.where).bind(params), trans=trans)
    if isinstance(stmt, ast.UpdateStatement):
        if stmt.where is None:
            raise SqlError("UPDATE without WHERE is not supported")
        assignments = {col: _bind_expr(expr).bind(params)
                       for col, expr in stmt.assignments}
        return cluster.update_where(
            stmt.table, _bind_expr(stmt.where).bind(params), assignments,
            trans=trans)
    raise SqlError(f"unsupported statement type {type(stmt).__name__}")
