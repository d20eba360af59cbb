"""Recursive-descent SQL parser producing a small AST."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.common.errors import SqlError
from repro.sql.lexer import SqlLexer, Token

AGG_FUNCS = {"count", "sum", "avg", "min", "max"}


# ------------------------------------------------------------------- AST

@dataclass
class ColumnRef:
    name: str


@dataclass
class Literal:
    value: object


@dataclass
class Parameter:
    """Extended-protocol placeholder ``$N`` (1-based): the binder makes
    it a slot (:class:`~repro.engine.expressions.Param`) in every
    statement, and Execute binds ``params[N-1]`` into it; the AST keeps
    the marker."""

    index: int


@dataclass
class BinaryOp:
    op: str
    left: object
    right: object


@dataclass
class UnaryNot:
    child: object


@dataclass
class BetweenOp:
    child: object
    low: object
    high: object
    negate: bool = False


@dataclass
class InOp:
    child: object
    values: List[object]
    negate: bool = False


@dataclass
class InSelect:
    """``child [NOT] IN (SELECT c FROM ...)``: only as a WHERE conjunct,
    where it binds to a semi (anti) join whose build side is the
    subquery."""

    child: object
    select: "SelectStatement"
    negate: bool = False


@dataclass
class LikeOp:
    child: object
    pattern: str
    negate: bool = False


@dataclass
class CaseOp:
    cond: object
    then: object
    otherwise: object


@dataclass
class ExtractYearOp:
    child: object


@dataclass
class SubstringOp:
    child: object
    start: int
    length: int


@dataclass
class AggCall:
    func: str
    arg: Optional[object]  # None for count(*)
    distinct: bool = False


@dataclass
class SelectItem:
    expr: object
    alias: Optional[str]


@dataclass
class JoinClause:
    #: a table name, or a derived table ``(SELECT ...) AS alias`` whose
    #: output names are the columns the outer query reads from it
    table: Union[str, "SelectStatement"]
    #: ``ON a = b AND c = d``: the key pairs, as written
    keys: List[Tuple[str, str]]
    how: str = "inner"


@dataclass
class SelectStatement:
    items: List[SelectItem]
    table: Union[str, "SelectStatement"]
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[object] = None
    group_by: List[str] = field(default_factory=list)
    having: Optional[object] = None
    order_by: List[Tuple[str, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    star: bool = False  # SELECT * (items empty; binder expands)

    def tables(self) -> List[str]:
        """Every stored table the statement reads, its subqueries'
        included, sorted."""
        names, selects = set(), [self]
        while selects:
            stmt = selects.pop()
            for source in [stmt.table] + [j.table for j in stmt.joins]:
                if isinstance(source, str):
                    names.add(source)
                else:
                    selects.append(source)
            selects += [node.select for node in conjuncts(stmt.where)
                        if isinstance(node, InSelect)]
        return sorted(names)


def conjuncts(node) -> list:
    """The ``AND``-ed parts of ``node``, left to right."""
    if isinstance(node, BinaryOp) and node.op == "and":
        return conjuncts(node.left) + conjuncts(node.right)
    return [node]


@dataclass
class ExplainStatement:
    select: SelectStatement
    analyze: bool = False


@dataclass
class InsertStatement:
    table: str
    columns: List[str]
    rows: List[List[object]]


@dataclass
class DeleteStatement:
    table: str
    where: Optional[object]


@dataclass
class UpdateStatement:
    table: str
    assignments: List[Tuple[str, object]]
    where: Optional[object]


# ----------------------------------------------------------------- parser

class SqlParser:
    """One statement per parse() call."""

    def __init__(self, text: str):
        self._tokens = SqlLexer(text).tokens()
        self._pos = 0
        #: the index of every ``$N`` parsed, in order
        self.params: List[int] = []

    # -- token helpers --------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.kind == kind and (value is None or token.value == value):
            return self._next()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._accept(kind, value)
        if token is None:
            got = self._peek()
            raise SqlError(
                f"expected {value or kind}, got {got.value!r}"
            )
        return token

    def _keyword(self, word: str) -> bool:
        return self._accept("keyword", word) is not None

    # -- entry ----------------------------------------------------------------

    def parse(self):
        if self._keyword("explain"):
            analyze = self._keyword("analyze")
            self._expect("keyword", "select")
            stmt = ExplainStatement(self._select(), analyze)
        elif self._keyword("select"):
            stmt = self._select()
        elif self._keyword("insert"):
            stmt = self._insert()
        elif self._keyword("delete"):
            stmt = self._delete()
        elif self._keyword("update"):
            stmt = self._update()
        else:
            raise SqlError(f"unsupported statement: {self._peek().value!r}")
        self._accept("op", ";")
        self._expect("eof")
        return stmt

    def parameter_count(self) -> int:
        """Highest ``$N`` index the parsed statement uses (0 = none).

        Raises :class:`SqlError` on non-positive or gappy indexes: ``$1
        $3`` without ``$2`` is a client bug better caught at Parse than at
        Bind.
        """
        distinct = sorted(set(self.params))
        if distinct and (distinct[0] < 1 or distinct != list(
                range(1, distinct[-1] + 1))):
            raise SqlError(
                f"parameter indexes must be contiguous from $1, got "
                f"{', '.join(f'${i}' for i in distinct)}")
        return distinct[-1] if distinct else 0

    # -- statements -------------------------------------------------------------

    def _select(self) -> SelectStatement:
        star = False
        items: List[SelectItem] = []
        if self._accept("op", "*"):
            star = True
        else:
            items.append(self._select_item())
            while self._accept("op", ","):
                items.append(self._select_item())
        self._expect("keyword", "from")
        table = self._source()
        joins = []
        while True:
            how = "inner"
            if self._keyword("left"):
                how = "left"
                self._keyword("join") or self._expect("keyword", "join")
            elif self._keyword("inner"):
                self._expect("keyword", "join")
            elif self._keyword("join"):
                pass
            else:
                break
            jtable = self._source()
            self._expect("keyword", "on")
            keys = []
            while not keys or self._keyword("and"):
                lk = self._expect("name").value
                self._expect("op", "=")
                keys.append((lk, self._expect("name").value))
            joins.append(JoinClause(jtable, keys, how))
        where = self._expression() if self._keyword("where") else None
        group_by: List[str] = []
        if self._keyword("group"):
            self._expect("keyword", "by")
            group_by.append(self._expect("name").value)
            while self._accept("op", ","):
                group_by.append(self._expect("name").value)
        having = self._expression() if self._keyword("having") else None
        order_by: List[Tuple[str, bool]] = []
        if self._keyword("order"):
            self._expect("keyword", "by")
            while True:
                key = self._expect("name").value
                ascending = True
                if self._keyword("desc"):
                    ascending = False
                else:
                    self._keyword("asc")
                order_by.append((key, ascending))
                if not self._accept("op", ","):
                    break
        limit = None
        if self._keyword("limit"):
            limit = int(self._expect("number").value)
        return SelectStatement(items, table, joins, where, group_by,
                               having, order_by, limit, star)

    def _source(self) -> Union[str, SelectStatement]:
        """A table name, or ``(SELECT ...) [AS] alias`` (the alias names
        nothing the binder reads: columns are unqualified)."""
        if not self._accept("op", "("):
            return self._expect("name").value
        self._expect("keyword", "select")
        select = self._select()
        self._expect("op", ")")
        self._keyword("as")
        self._expect("name")
        return select

    def _select_item(self) -> SelectItem:
        expr = self._expression()
        alias = None
        if self._keyword("as"):
            alias = self._expect("name").value
        elif self._peek().kind == "name":
            alias = self._next().value
        return SelectItem(expr, alias)

    def _insert(self) -> InsertStatement:
        self._expect("keyword", "into")
        table = self._expect("name").value
        columns: List[str] = []
        if self._accept("op", "("):
            columns.append(self._expect("name").value)
            while self._accept("op", ","):
                columns.append(self._expect("name").value)
            self._expect("op", ")")
        self._expect("keyword", "values")
        rows = []
        while True:
            self._expect("op", "(")
            row = [self._literal_value()]
            while self._accept("op", ","):
                row.append(self._literal_value())
            self._expect("op", ")")
            rows.append(row)
            if not self._accept("op", ","):
                break
        return InsertStatement(table, columns, rows)

    def _delete(self) -> DeleteStatement:
        self._expect("keyword", "from")
        table = self._expect("name").value
        where = self._expression() if self._keyword("where") else None
        return DeleteStatement(table, where)

    def _update(self) -> UpdateStatement:
        table = self._expect("name").value
        self._expect("keyword", "set")
        assignments = []
        while True:
            col = self._expect("name").value
            self._expect("op", "=")
            assignments.append((col, self._expression()))
            if not self._accept("op", ","):
                break
        where = self._expression() if self._keyword("where") else None
        return UpdateStatement(table, assignments, where)

    # -- expressions ----------------------------------------------------------------

    def _expression(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._keyword("or"):
            left = BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._keyword("and"):
            left = BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._keyword("not"):
            return UnaryNot(self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        negate = self._keyword("not")
        if self._keyword("between"):
            low = self._additive()
            self._expect("keyword", "and")
            high = self._additive()
            return BetweenOp(left, low, high, negate)
        if self._keyword("in"):
            self._expect("op", "(")
            if self._keyword("select"):
                select = self._select()
                self._expect("op", ")")
                return InSelect(left, select, negate)
            values = [self._literal_value()]
            while self._accept("op", ","):
                values.append(self._literal_value())
            self._expect("op", ")")
            return InOp(left, values, negate)
        if self._keyword("like"):
            pattern = self._expect("string").value
            return LikeOp(left, pattern, negate)
        if negate:
            raise SqlError("NOT must precede BETWEEN, IN or LIKE here")
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "<>", "!=", "<",
                                                  "<=", ">", ">="):
            op = self._next().value
            if op == "!=":
                op = "<>"
            return BinaryOp(op, left, self._additive())
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                op = self._next().value
                left = BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._primary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/"):
                op = self._next().value
                left = BinaryOp(op, left, self._primary())
            else:
                return left

    def _primary(self):
        token = self._peek()
        if token.kind == "keyword" and token.value in AGG_FUNCS:
            return self._agg_call()
        if token.kind == "keyword" and token.value == "case":
            return self._case()
        if token.kind == "keyword" and token.value == "extract":
            self._next()
            self._expect("op", "(")
            self._expect("keyword", "year")
            self._expect("keyword", "from")
            child = self._expression()
            self._expect("op", ")")
            return ExtractYearOp(child)
        if token.kind == "keyword" and token.value == "substring":
            self._next()
            self._expect("op", "(")
            child = self._expression()
            self._expect("keyword", "from")
            start = int(self._expect("number").value)
            self._expect("keyword", "for")
            length = int(self._expect("number").value)
            self._expect("op", ")")
            return SubstringOp(child, start, length)
        if token.kind == "keyword" and token.value == "date":
            self._next()
            literal = self._expect("string").value
            from repro.common.types import date_to_days
            return Literal(date_to_days(literal))
        if self._accept("op", "("):
            expr = self._expression()
            self._expect("op", ")")
            return expr
        number = self._signed_number()
        if number is not None:
            return Literal(number)
        if self._accept("op", "-"):
            inner = self._primary()
            return BinaryOp("*", Literal(-1), inner)
        if token.kind == "string":
            return Literal(self._next().value)
        if token.kind == "param":
            return self._parameter(self._next())
        if token.kind == "name":
            return ColumnRef(self._next().value)
        raise SqlError(f"unexpected token {token.value!r}")

    def _agg_call(self) -> AggCall:
        func = self._next().value
        self._expect("op", "(")
        distinct = self._keyword("distinct")
        if self._accept("op", "*"):
            arg = None
        else:
            arg = self._expression()
        self._expect("op", ")")
        return AggCall(func, arg, distinct)

    def _case(self) -> CaseOp:
        self._expect("keyword", "case")
        self._expect("keyword", "when")
        cond = self._expression()
        self._expect("keyword", "then")
        then = self._expression()
        self._expect("keyword", "else")
        otherwise = self._expression()
        self._expect("keyword", "end")
        return CaseOp(cond, then, otherwise)

    def _literal_value(self):
        if self._keyword("date"):
            from repro.common.types import date_to_days
            return date_to_days(self._expect("string").value)
        number = self._signed_number()
        if number is not None:
            return number
        token = self._next()
        if token.kind == "string":
            return token.value
        if token.kind == "param":
            # raw-value position (IN list, INSERT row): the binder sees
            # the bound python value directly, not a Literal node
            return self._parameter(token)
        if token.kind == "keyword" and token.value == "null":
            return None
        raise SqlError(f"expected literal, got {token.value!r}")

    def _parameter(self, token: Token) -> Parameter:
        self.params.append(int(token.value))
        return Parameter(self.params[-1])

    def _signed_number(self):
        """The number next, a ``-`` before it included (one negative
        literal, not ``-1 * n``); None, consuming nothing, if none is."""
        minus = self._peek().kind == "op" and self._peek().value == "-"
        token = self._tokens[self._pos + minus]  # the eof token ends them
        if token.kind != "number":
            return None
        self._pos += minus + 1
        value = self._number(token.value)
        return -value if minus else value

    @staticmethod
    def _number(text: str):
        return int(text) if text.isdigit() else float(text)
