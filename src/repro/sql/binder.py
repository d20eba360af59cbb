"""Binder: SQL AST -> logical plans / DML calls on a VectorHCluster."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Dict, List, Set

import numpy as np

from repro.common.errors import SqlError
from repro.engine.expressions import (
    Between, Case, Col, Const, Expr, InList, Like, Not, Param, bound_value,
)
from repro.mpp.logical import (
    LAggr, LJoin, LLimit, LProject, LScan, LSelect, LSort, LTopN,
    LogicalPlan, derive_scan_triples, output_columns,
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


def _children(node) -> tuple:
    """The expression nodes right under ``node`` (a subquery's are its
    own)."""
    if isinstance(node, ast.BinaryOp):
        return node.left, node.right
    if isinstance(node, ast.BetweenOp):
        return node.child, node.low, node.high
    if isinstance(node, ast.CaseOp):
        return node.cond, node.then, node.otherwise
    if isinstance(node, ast.AggCall):
        return () if node.arg is None else (node.arg,)
    child = getattr(node, "child", None)
    return () if child is None else (child,)


def _collect_columns(node, out: List[str]) -> None:
    if isinstance(node, ast.ColumnRef):
        out.append(node.name)
    for child in _children(node):
        _collect_columns(child, out)


def _has_aggregate(node) -> bool:
    return isinstance(node, ast.AggCall) or any(
        _has_aggregate(child) for child in _children(node))


class _SelectBinder:
    def __init__(self, cluster, stmt: ast.SelectStatement, schemas=None,
                 names=None):
        """Table names resolve on ``cluster``, or, when it is None, in
        ``schemas`` (name -> TableSchema): such a plan reads no feedback,
        so its joins keep the written order. ``names`` are the enclosing
        statement's name counters, shared with its subqueries."""
        self.cluster = cluster
        self.stmt = stmt
        self._schemas = schemas
        # generated names count per statement: a text binds the same
        # names every time
        self._subquery_of = names is not None
        self._names = names or (itertools.count(1), itertools.count(1))
        self._out_names, self._arg_names = self._names
        #: the output names in SELECT-list order (set by plan)
        self.columns: List[str] = []
        #: the columns a LEFT JOIN's build side carries
        self._left_built: Set[str] = set()

    def plan(self) -> LogicalPlan:
        """The statement's logical plan; a ``$N`` in it is a slot
        (:class:`~repro.engine.expressions.Param`). The AST is not
        changed: ``SELECT *`` expands into a new statement."""
        stmt = self.stmt
        sources = [stmt.table] + [j.table for j in stmt.joins]
        # a derived table is bound once, here; its outputs are columns
        self._derived = {id(s): self._subquery(s)
                         for s in sources if not isinstance(s, str)}
        offered = [self._table_columns(s) if isinstance(s, str)
                   else self._derived[id(s)][1] for s in sources]
        if stmt.star:
            stmt = self.stmt = dataclasses.replace(
                stmt, items=self._expand_star(offered), star=False)
        where, self._filters = self._split_where(stmt.where)
        needed: List[str] = []
        for node in [item.expr for item in stmt.items] + [stmt.where]:
            _collect_columns(node, needed)
        needed += stmt.group_by
        needed += [key for join in stmt.joins for pair in join.keys
                   for key in pair]
        needed = list(dict.fromkeys(needed))
        # a subquery sees only its own FROM: an outer column is unknown
        known = set().union(*offered) | {item.alias for item in stmt.items}
        for name in needed:
            if name not in known:
                raise SqlError(f"unknown column {name}")

        plan, pending = self._from_clause(needed)
        if where is not None:
            plan = LSelect(plan, _bind_expr(where))
        plan = self._order_joins(self._filtered(plan, pending), needed)
        plan = self._projection_and_aggregation(plan)
        if stmt.order_by:
            keys = [k for k, _ in stmt.order_by]
            asc = [a for _, a in stmt.order_by]
            if stmt.limit is not None:
                return LTopN(plan, keys, stmt.limit, asc)
            return LSort(plan, keys, asc)
        if stmt.limit is not None:
            return LLimit(plan, stmt.limit)
        return plan

    def _table_columns(self, table: str) -> List[str]:
        if self.cluster is not None:
            return self.cluster.table(table).schema.column_names
        if table not in self._schemas:
            raise SqlError(f"no such table {table}")
        return self._schemas[table].column_names

    def _subquery(self, select: ast.SelectStatement):
        """A subquery's plan and output names."""
        sub = _SelectBinder(self.cluster, select, self._schemas, self._names)
        return sub.plan(), sub.columns

    def _expand_star(self, offered) -> List[ast.SelectItem]:
        """SELECT *: one item per column of the FROM/JOIN items."""
        names = dict.fromkeys(name for columns in offered for name in columns)
        return [ast.SelectItem(ast.ColumnRef(name), None) for name in names]

    def _split_where(self, where):
        """WHERE less its ``IN (SELECT ...)`` conjuncts, and those as
        (column, subquery plan, its output, semi|anti)."""
        conjuncts = ast.conjuncts(where)
        filters = []
        for node in conjuncts:
            if not isinstance(node, ast.InSelect):
                continue
            if not isinstance(node.child, ast.ColumnRef):
                raise SqlError("IN (SELECT ...) needs a column on its left")
            plan, columns = self._subquery(node.select)
            if len(columns) != 1:
                raise SqlError("an IN subquery must select one column")
            filters.append((node.child.name, plan, columns[0],
                            "anti" if node.negate else "semi"))
        if not filters:
            return where, []
        rest = [c for c in conjuncts if not isinstance(c, ast.InSelect)]
        return (functools.reduce(lambda a, b: ast.BinaryOp("and", a, b),
                                 rest) if rest else None), filters

    def _from_clause(self, needed: List[str], joins=None):
        """The FROM item joined left-deep with ``joins`` (the written
        JOINs by default), each scan reading the ``needed`` columns its
        table holds, and the IN conjuncts it leaves to go over the WHERE.
        An ``IN (SELECT ...)`` conjunct semi (anti) joins the chain before
        the first JOIN after the item that brings its column; one whose
        column the last item brings filters over the WHERE."""
        stmt = self.stmt
        pending = list(self._filters)
        plan = self._source(stmt.table, needed)
        for join in stmt.joins if joins is None else joins:
            plan = self._filtered(plan, pending)
            plan = self._join(plan, self._source(join.table, needed), join)
        return plan, pending

    def _source(self, source, needed: List[str]) -> LogicalPlan:
        if not isinstance(source, str):
            return self._derived[id(source)][0]
        columns = self._table_columns(source)
        return LScan(source, [c for c in needed if c in columns])

    @staticmethod
    def _filtered(plan: LogicalPlan, pending: list) -> LogicalPlan:
        held = output_columns(plan) if pending else ()
        for conjunct in [f for f in pending if f[0] in held]:
            pending.remove(conjunct)
            column, sub, key, how = conjunct
            plan = LJoin(build=sub, probe=plan, build_keys=[key],
                         probe_keys=[column], how=how)
        return plan

    def _join(self, probe: LogicalPlan, build: LogicalPlan,
              join: ast.JoinClause) -> LJoin:
        """``ON a = b AND ...``: each pair names one column of each side,
        in either order. A column both sides carry must be a key paired
        with itself in an inner join (``ON k = k``): the result has it
        once."""
        build_cols, probe_cols = output_columns(build), output_columns(probe)
        pairs = []
        for a, b in join.keys:
            if a in build_cols and b in probe_cols:
                pairs.append((a, b))
            elif b in build_cols and a in probe_cols:
                pairs.append((b, a))
            else:
                raise SqlError(f"ON {a} = {b} must name a column of each "
                               f"side")
        shared = build_cols & probe_cols
        if join.how == "inner":
            shared -= {b for b, p in pairs if b == p}
        if shared:
            raise SqlError(f"column {min(shared)} is on both sides of a join")
        if join.how == "left":
            self._left_built |= build_cols
        return LJoin(build=build, probe=probe,
                     build_keys=[b for b, _ in pairs],
                     probe_keys=[p for _, p in pairs], how=join.how)

    def _order_joins(self, plan: LogicalPlan,
                     needed: List[str]) -> LogicalPlan:
        """Cost-based join order for pure star queries: ``plan`` (the
        written JOIN chain, under the WHERE if there is one) over the
        cheapest chain.

        The written JOIN order builds a left-deep chain where every build
        side is joined against the running probe; when the feedback store
        has *measured* cardinalities for the dimension scans, stacking
        the smallest dimension innermost shrinks every intermediate
        result. Only fires for all-inner star joins of stored tables
        (every ON clause keys back to the FROM table) with no IN
        subquery, and only when at least one scan estimate is
        feedback-backed -- cold plans keep the written order
        bit-for-bit, which keeps planning deterministic. A dimension's
        scan is estimated with the triples the WHERE gives it.
        """
        stmt = self.stmt
        joins = stmt.joins
        if (self.cluster is None or self._filters or len(joins) < 2
                or not isinstance(stmt.table, str)
                or any(j.how != "inner" or not isinstance(j.table, str)
                       for j in joins)):
            return plan
        base_cols = set(self._table_columns(stmt.table))
        for join in joins:
            build_cols = self._table_columns(join.table)
            for a, b in join.keys:
                if (b if a in build_cols else a) not in base_cols:
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
        chain, _ = self._from_clause(needed, order)
        return chain if stmt.where is None else LSelect(chain,
                                                        plan.predicate)

    def _projection_and_aggregation(self, plan: LogicalPlan) -> LogicalPlan:
        """SELECT list, aggregation and HAVING. The output columns follow
        the SELECT list: an aggregation adds a last Project when its
        natural order (group keys, then aggregates) differs or an item
        computes over aggregates (``100 * sum(x) / sum(y)``); HAVING
        filters the aggregation's output, before that Project."""
        stmt = self.stmt
        having = None if stmt.having is None else _bind_expr(stmt.having)
        if not (stmt.group_by
                or any(_has_aggregate(item.expr) for item in stmt.items)):
            outputs = {}
            for item in stmt.items:
                name = item.alias or self._default_name(item.expr)
                outputs[name] = _bind_expr(item.expr)
            self.columns = list(outputs)
            # a subquery's plain column list needs no Project: the outer
            # query reads its columns by name (its WHERE's columns ride
            # along, and one the outer side also has fails the join)
            if not (self._subquery_of and all(
                    isinstance(e, Col) and e.name == n
                    for n, e in outputs.items())):
                plan = LProject(plan, outputs)
            return plan if having is None else LSelect(plan, having)

        aggregates: list = []
        pre: Dict[str, Expr] = {g: Col(g) for g in stmt.group_by}
        final: Dict[str, Expr] = {}
        for item in stmt.items:
            expr = item.expr
            if isinstance(expr, ast.AggCall):
                name = item.alias or f"{expr.func}_{next(self._out_names)}"
                aggregates.append(self._aggregate(name, expr, pre))
                final[name] = Col(name)
            elif item.alias in stmt.group_by:
                # computed key, e.g. GROUP BY extract(year ...) alias
                pre[item.alias] = _bind_expr(expr)
                final[item.alias] = Col(item.alias)
            else:
                name = item.alias or self._default_name(expr)
                final[name] = _bind_expr(self._lift(expr, aggregates, pre))
        plan = LAggr(LProject(plan, pre), stmt.group_by, aggregates)
        if having is not None:
            plan = LSelect(plan, having)
        self.columns = list(final)
        natural = list(stmt.group_by) + [name for name, _, _ in aggregates]
        if self.columns != natural or not all(
                isinstance(e, Col) and e.name == n for n, e in final.items()):
            plan = LProject(plan, final)
        return plan

    def _lift(self, node, aggregates: list, pre: Dict[str, Expr]):
        """``node`` with each aggregate call in it made a column of the
        aggregation (appended to ``aggregates``); any other column must
        be a group key."""
        if isinstance(node, ast.AggCall):
            name = f"{node.func}_{next(self._out_names)}"
            aggregates.append(self._aggregate(name, node, pre))
            return ast.ColumnRef(name)
        if isinstance(node, ast.ColumnRef):
            if node.name not in self.stmt.group_by:
                raise SqlError(f"column {node.name} not in GROUP BY")
            return node
        if not dataclasses.is_dataclass(node):
            return node
        return dataclasses.replace(node, **{
            f.name: self._lift(getattr(node, f.name), aggregates, pre)
            for f in dataclasses.fields(node)})

    def _aggregate(self, name: str, call: ast.AggCall,
                   pre: Dict[str, Expr]) -> tuple:
        """``call`` as an aggregate spec, its argument a column of
        ``pre``. There is no NULL: ``count(c)`` of a LEFT JOIN's build
        column counts the probe rows that found a partner."""
        if call.arg is None:
            return name, "count", None
        arg = f"__agg_in_{next(self._arg_names)}"
        if call.func == "count" and isinstance(call.arg, ast.ColumnRef) \
                and call.arg.name in self._left_built:
            if call.distinct or sum(j.how == "left"
                                    for j in self.stmt.joins) > 1:
                raise SqlError("a LEFT JOIN column is counted only as "
                               "count(column), under one LEFT JOIN")
            pre[arg] = Case(Col("__matched"), Const(1.0), Const(0.0))
            return name, "sum", Col(arg)
        pre[arg] = _bind_expr(call.arg)
        func = "count_distinct" if call.distinct and call.func == "count" \
            else call.func
        return name, func, Col(arg)

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


def bind_select(text: str, schemas) -> LogicalPlan:
    """The logical plan of the SELECT ``text`` bound against ``schemas``
    (table name -> TableSchema) alone: no cluster, so no feedback, and
    every engine handed the plan runs the same one."""
    stmt = parse_simple(text)
    if not isinstance(stmt, ast.SelectStatement):
        raise SqlError("bind_select takes a SELECT")
    return _SelectBinder(None, stmt, schemas).plan()


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
