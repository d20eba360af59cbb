"""Prepared-statement support: $N parameter binding over parsed ASTs.

The extended protocol parses a statement once (``Parse``), then executes
it many times with different bound values (``Bind``/``Execute``). The
parser leaves :class:`~repro.sql.parser.Parameter` markers wherever the
text said ``$N``. A SELECT never needs them replaced: its binder makes
each one a plan slot, and the server binds values into the plan template
(:meth:`repro.mpp.plan.QueryPlan.bind`). Prepared DML runs through
:func:`bind_parameters`, which returns the statement with its values in
place -- a new node on every path to a ``$N``, the statement's own nodes
everywhere else (nothing downstream changes an AST).

Substitution is context-aware: in expression positions a parameter
becomes a :class:`~repro.sql.parser.Literal` node; in the two places the
parser stores plain python values (``InOp.values`` and
``InsertStatement.rows``) it becomes the raw value.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.common.errors import SqlError
from repro.sql.parser import InOp, InsertStatement, Literal, Parameter


#: the fields whose items are plain python values, not expression nodes
_RAW_FIELDS = {(InOp, "values"), (InsertStatement, "rows")}


def bind_parameters(stmt, params: Sequence[object], n_params: int):
    """``stmt`` with every ``$N`` replaced by ``params[N-1]``.

    The statement's parameter count (``n_params``, from
    :meth:`SqlParser.parameter_count`) must match exactly; mismatches
    raise :class:`SqlError` (the wire protocol's Bind error).
    """
    if n_params != len(params):
        raise SqlError(
            f"statement uses {n_params} parameter(s), {len(params)} bound")

    def substitute(value, raw: bool = False):
        if isinstance(value, Parameter):
            bound = params[value.index - 1]
            return bound if raw else Literal(bound)
        if isinstance(value, (list, tuple)):
            items = [substitute(item, raw) for item in value]
            if all(new is old for new, old in zip(items, value)):
                return value
            return items if isinstance(value, list) else tuple(items)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            changes = {}
            for f in dataclasses.fields(value):
                old = getattr(value, f.name)
                new = substitute(old, (type(value), f.name) in _RAW_FIELDS)
                if new is not old:
                    changes[f.name] = new
            return dataclasses.replace(value, **changes) if changes else value
        return value

    return substitute(stmt)
