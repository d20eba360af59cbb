"""A small SQL front-end over the logical-plan layer.

Covers ``SELECT ... FROM ... [JOIN ... ON a = b [AND c = d]] [WHERE]
[GROUP BY] [HAVING] [ORDER BY] [LIMIT]``, where a FROM or JOIN item may be
a derived table ``(SELECT ...) AS n``, a SELECT item may compute over
aggregates and a WHERE conjunct may be ``col [NOT] IN (SELECT c ...)`` (a
semi or anti join); plus ``INSERT INTO ... VALUES``, ``DELETE FROM ...
WHERE`` and ``UPDATE ... SET ... WHERE``, and ``$N`` placeholders for
the server's extended (parse/bind/execute) protocol, which the binder
makes slots. All 22 TPC-H queries are written in it
(:mod:`repro.tpch.queries`). Correlated and scalar subqueries, window
functions and DDL are out of scope.
"""

from repro.sql.lexer import SqlLexer, Token
from repro.sql.parser import Parameter, SqlParser
from repro.sql.binder import bind_select, execute_sql

__all__ = [
    "Parameter",
    "SqlLexer",
    "SqlParser",
    "Token",
    "bind_select",
    "execute_sql",
]
