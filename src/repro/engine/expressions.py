"""Expression trees, evaluable both vectorized and tuple-at-a-time.

``eval(columns)`` runs over whole numpy vectors (the VectorH path);
``eval_row(row)`` evaluates the *same* tree one tuple at a time and is what
the baseline row engine uses -- so the vectorized-vs-interpreted comparison
in the benchmarks isolates the execution model, not the plan.

A string column may arrive dictionary-coded
(:class:`~repro.engine.batch.DictColumn`). Comparing one with a literal is
its own business (evaluated on the entries, gathered through the codes);
``IN``, ``LIKE`` and ``SUBSTRING`` run their per-string Python on the
entries through :func:`_on_strings`. Whatever else touches one -- a
comparison of two columns over different dictionaries, a ``CASE`` branch
-- sees the object array it stands for.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import PlanError
from repro.engine.batch import DictColumn, EntryMemo
from repro.engine.profile import kernel


class Expr:
    """Base expression node."""

    def eval(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def eval_row(self, row: Dict[str, object]):
        raise NotImplementedError

    def columns_used(self) -> List[str]:
        out: List[str] = []
        self._collect(out)
        return list(dict.fromkeys(out))

    def _collect(self, out: List[str]) -> None:
        for child in getattr(self, "children", ()):
            child._collect(out)

    def bind(self, params: Sequence) -> "Expr":
        """This tree with every slot ``$N`` (:class:`Param`) the literal
        ``params[N-1]``; the very same object where it holds no slot."""
        return self

    # operator sugar so plan builders read naturally
    def __add__(self, other): return Add(self, _lift(other))
    def __sub__(self, other): return Sub(self, _lift(other))
    def __mul__(self, other): return Mul(self, _lift(other))
    def __truediv__(self, other): return Div(self, _lift(other))
    def __and__(self, other): return And(self, _lift(other))
    def __or__(self, other): return Or(self, _lift(other))
    def __invert__(self): return Not(self)
    def __eq__(self, other): return Eq(self, _lift(other))  # type: ignore
    def __ne__(self, other): return Ne(self, _lift(other))  # type: ignore
    def __lt__(self, other): return Lt(self, _lift(other))
    def __le__(self, other): return Le(self, _lift(other))
    def __gt__(self, other): return Gt(self, _lift(other))
    def __ge__(self, other): return Ge(self, _lift(other))
    __hash__ = None  # type: ignore


def _lift(value) -> "Expr":
    return value if isinstance(value, Expr) else Const(value)


def _on_strings(values, fn, memo: EntryMemo):
    """``fn`` (an object array of strings in, an array as long out) of a
    string column: of a coded column's entries, gathered through its
    codes."""
    if isinstance(values, DictColumn):
        return values.map_entries(fn, memo)
    return fn(values)


def isin(column, values, memo: Optional[EntryMemo] = None) -> np.ndarray:
    """``column IN values`` (the ``IN`` list and the scan's ``in`` triple
    alike): a string column answers on its entries."""
    if column.dtype == object:
        return _on_strings(column, lambda s: np.isin(s, values), memo)
    return np.isin(column, values)


class Col(Expr):
    """A column reference."""

    def __init__(self, name: str):
        self.name = name
        self.children = ()

    def eval(self, columns):
        return columns[self.name]

    def eval_row(self, row):
        return row[self.name]

    def _collect(self, out):
        out.append(self.name)

    def __repr__(self):
        return self.name


class Const(Expr):
    """A literal."""

    def __init__(self, value):
        self.value = value
        self.children = ()

    def eval(self, columns):
        return self.value  # numpy broadcasts scalars

    def eval_row(self, row):
        return self.value

    def __repr__(self):
        return repr(self.value)


class Param(Expr):
    """A prepared statement's slot ``$N`` (1-based): where a plan template
    holds a literal not known before Execute. :meth:`bind` makes it a
    :class:`Const`; nothing evaluates one."""

    __hash__ = object.__hash__  # an IN list holding a slot is still a set

    def __init__(self, index: int):
        self.index = index
        self.children = ()

    def bind(self, params):
        if not 0 < self.index <= len(params):
            raise PlanError(f"unbound parameter {self!r}: "
                            f"{len(params)} value(s) bound")
        return Const(params[self.index - 1])

    def eval(self, columns):
        raise PlanError(f"unbound parameter {self!r} reached execution")

    eval_row = eval

    def __repr__(self):
        return f"${self.index}"


def bound_value(value, params: Sequence):
    """A raw literal position (IN list, BETWEEN bound, scan triple; an
    ``in`` triple's tuple of them) bound: a slot's value, anything else
    as it is."""
    if isinstance(value, tuple):
        return tuple(bound_value(v, params) for v in value)
    return value.bind(params).value if isinstance(value, Param) else value


class _Binary(Expr):
    symbol = "?"

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self.children = (left, right)

    def bind(self, params):
        left, right = self.left.bind(params), self.right.bind(params)
        if left is self.left and right is self.right:
            return self
        return type(self)(left, right)

    def __repr__(self):
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Add(_Binary):
    symbol = "+"

    def eval(self, c): return self.left.eval(c) + self.right.eval(c)
    def eval_row(self, r): return self.left.eval_row(r) + self.right.eval_row(r)


class Sub(_Binary):
    symbol = "-"

    def eval(self, c): return self.left.eval(c) - self.right.eval(c)
    def eval_row(self, r): return self.left.eval_row(r) - self.right.eval_row(r)


class Mul(_Binary):
    symbol = "*"

    def eval(self, c): return self.left.eval(c) * self.right.eval(c)
    def eval_row(self, r): return self.left.eval_row(r) * self.right.eval_row(r)


class Div(_Binary):
    symbol = "/"

    def eval(self, c): return self.left.eval(c) / self.right.eval(c)
    def eval_row(self, r): return self.left.eval_row(r) / self.right.eval_row(r)


class Eq(_Binary):
    symbol = "="

    def eval(self, c): return np.equal(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return self.left.eval_row(r) == self.right.eval_row(r)


class Ne(_Binary):
    symbol = "<>"

    def eval(self, c): return np.not_equal(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return self.left.eval_row(r) != self.right.eval_row(r)


class Lt(_Binary):
    symbol = "<"

    def eval(self, c): return np.less(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return self.left.eval_row(r) < self.right.eval_row(r)


class Le(_Binary):
    symbol = "<="

    def eval(self, c): return np.less_equal(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return self.left.eval_row(r) <= self.right.eval_row(r)


class Gt(_Binary):
    symbol = ">"

    def eval(self, c): return np.greater(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return self.left.eval_row(r) > self.right.eval_row(r)


class Ge(_Binary):
    symbol = ">="

    def eval(self, c): return np.greater_equal(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return self.left.eval_row(r) >= self.right.eval_row(r)


class And(_Binary):
    symbol = "AND"

    def eval(self, c): return np.logical_and(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return bool(self.left.eval_row(r)) and bool(self.right.eval_row(r))


class Or(_Binary):
    symbol = "OR"

    def eval(self, c): return np.logical_or(self.left.eval(c), self.right.eval(c))
    def eval_row(self, r): return bool(self.left.eval_row(r)) or bool(self.right.eval_row(r))


def _with_child(expr: Expr, params) -> Expr:
    """``expr`` (a node whose one child is ``child``) with its child bound."""
    child = expr.child.bind(params)
    if child is expr.child:
        return expr
    clone = object.__new__(type(expr))
    clone.__dict__.update(expr.__dict__, child=child, children=(child,))
    return clone


class Not(Expr):
    def __init__(self, child: Expr):
        self.child = child
        self.children = (child,)

    bind = _with_child

    def eval(self, c): return np.logical_not(self.child.eval(c))
    def eval_row(self, r): return not self.child.eval_row(r)

    def __repr__(self):
        return f"NOT {self.child!r}"


class Between(Expr):
    """``expr BETWEEN low AND high`` (inclusive)."""

    def __init__(self, child: Expr, low, high):
        self.child = child
        self.low = low
        self.high = high
        self.children = (child,)

    def bind(self, params):
        low = bound_value(self.low, params)
        high = bound_value(self.high, params)
        child = self.child.bind(params)
        if child is self.child and low is self.low and high is self.high:
            return self
        return Between(child, low, high)

    def eval(self, c):
        v = self.child.eval(c)
        return np.logical_and(v >= self.low, v <= self.high)

    def eval_row(self, r):
        v = self.child.eval_row(r)
        return self.low <= v <= self.high

    def __repr__(self):
        return f"{self.child!r} BETWEEN {self.low!r} AND {self.high!r}"


class InList(Expr):
    """``expr IN (v1, v2, ...)``."""

    def __init__(self, child: Expr, values: Sequence):
        self.child = child
        self.values = list(values)
        self._set = set(values)
        self._memo = EntryMemo()
        self.children = (child,)

    def bind(self, params):
        values = [bound_value(v, params) for v in self.values]
        child = self.child.bind(params)
        if child is self.child and all(
                new is old for new, old in zip(values, self.values)):
            return self
        return InList(child, values)

    def eval(self, c):
        return isin(self.child.eval(c), self.values, self._memo)

    def eval_row(self, r):
        return self.child.eval_row(r) in self._set

    def __repr__(self):
        return f"{self.child!r} IN {self.values!r}"


class Like(Expr):
    """SQL LIKE, translated to an anchored regex once at plan time."""

    def __init__(self, child: Expr, pattern: str, negate: bool = False):
        self.child = child
        self.pattern = pattern
        self.negate = negate
        regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
        self._regex = re.compile("^" + regex + "$")
        self._memo = EntryMemo()
        self.children = (child,)

    bind = _with_child

    def _matches(self, strings) -> np.ndarray:
        match = self._regex.match
        return np.fromiter((match(v) is not None for v in strings),
                           np.bool_, len(strings))

    def eval(self, c):
        values = self.child.eval(c)
        with kernel("expr.like", rows=len(values)):
            out = _on_strings(values, self._matches, self._memo)
        return np.logical_not(out) if self.negate else out

    def eval_row(self, r):
        hit = self._regex.match(self.child.eval_row(r)) is not None
        return not hit if self.negate else hit

    def __repr__(self):
        op = "NOT LIKE" if self.negate else "LIKE"
        return f"{self.child!r} {op} {self.pattern!r}"


class Case(Expr):
    """``CASE WHEN cond THEN a ELSE b END`` (single branch, as TPC-H needs)."""

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr):
        self.cond = cond
        self.then = _lift(then)
        self.otherwise = _lift(otherwise)
        self.children = (self.cond, self.then, self.otherwise)

    def bind(self, params):
        parts = [e.bind(params) for e in self.children]
        if all(new is old for new, old in zip(parts, self.children)):
            return self
        return Case(*parts)

    def eval(self, c):
        cond = self.cond.eval(c)
        return np.where(cond, self.then.eval(c), self.otherwise.eval(c))

    def eval_row(self, r):
        if self.cond.eval_row(r):
            return self.then.eval_row(r)
        return self.otherwise.eval_row(r)

    def __repr__(self):
        return f"CASE WHEN {self.cond!r} THEN {self.then!r} ELSE {self.otherwise!r}"


class ExtractYear(Expr):
    """``EXTRACT(YEAR FROM date_col)`` for epoch-day date columns."""

    def __init__(self, child: Expr):
        self.child = child
        self.children = (child,)

    bind = _with_child

    def eval(self, c):
        days = self.child.eval(c)
        with kernel("expr.extract_year", rows=len(days)):
            return (days.astype("datetime64[D]")
                    .astype("datetime64[Y]").astype(np.int64) + 1970)

    def eval_row(self, r):
        import datetime
        days = self.child.eval_row(r)
        return (datetime.date(1970, 1, 1)
                + datetime.timedelta(days=int(days))).year

    def __repr__(self):
        return f"EXTRACT(YEAR FROM {self.child!r})"


class Substr(Expr):
    """``SUBSTRING(col FROM start FOR length)`` (1-based, as in SQL)."""

    def __init__(self, child: Expr, start: int, length: int):
        self.child = child
        self.start = start
        self.length = length
        self._memo = EntryMemo()
        self.children = (child,)

    bind = _with_child

    def _cut(self, strings) -> np.ndarray:
        lo = self.start - 1
        hi = lo + self.length
        return np.fromiter((v[lo:hi] for v in strings), object, len(strings))

    def eval(self, c):
        values = self.child.eval(c)
        with kernel("expr.substr", rows=len(values)):
            if isinstance(values, DictColumn):
                # the cut entries are coded again (they may collide and
                # change order), so the result stays codes
                return values.map_entries(
                    lambda s: DictColumn.encode(self._cut(s)), self._memo)
            return self._cut(values)

    def eval_row(self, r):
        v = self.child.eval_row(r)
        lo = self.start - 1
        return v[lo: lo + self.length]

    def __repr__(self):
        return f"SUBSTR({self.child!r},{self.start},{self.length})"
