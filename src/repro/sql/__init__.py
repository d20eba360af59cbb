"""A small SQL front-end over the logical-plan layer.

Covers the interactive subset used by the examples and quickstart:
``SELECT ... FROM ... [JOIN ... ON ...] [WHERE] [GROUP BY] [HAVING]
[ORDER BY] [LIMIT]``, plus ``INSERT INTO ... VALUES``, ``DELETE FROM ...
WHERE`` and ``UPDATE ... SET ... WHERE``, and ``$N`` placeholders for
the server's extended (parse/bind/execute) protocol, which the binder
makes slots. The production system's full SQL (subqueries, window
functions, DDL) is out of scope -- the TPC-H queries are expressed as
logical plans directly (:mod:`repro.tpch.queries`).
"""

from repro.sql.lexer import SqlLexer, Token
from repro.sql.parser import Parameter, SqlParser
from repro.sql.binder import execute_sql

__all__ = [
    "Parameter",
    "SqlLexer",
    "SqlParser",
    "Token",
    "execute_sql",
]
