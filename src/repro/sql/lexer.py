"""SQL tokenizer."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.common.errors import SqlError

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "join", "inner", "left", "on", "and", "or", "not", "in", "like",
    "between", "as", "asc", "desc", "insert", "into", "values", "delete",
    "update", "set", "date", "case", "when", "then", "else", "end",
    "distinct", "count", "sum", "avg", "min", "max", "null", "is",
    "extract", "year", "substring", "for", "explain", "analyze",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?([eE][-+]?\d+)?)
  | (?P<string>'(?:[^'])*')
  | (?P<param>\$\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><>|<=|>=|!=|=|<|>|\(|\)|,|\*|\+|-|/|\.|;)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | name | number | string | param | op | eof
    value: str


class SqlLexer:
    """Turns SQL text into a token list (keywords lowercased)."""

    def __init__(self, text: str):
        self.text = text

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        pos = 0
        while pos < len(self.text):
            match = _TOKEN_RE.match(self.text, pos)
            if match is None:
                raise SqlError(
                    f"cannot tokenize near: {self.text[pos:pos + 20]!r}"
                )
            pos = match.end()
            if match.lastgroup == "ws":
                continue
            value = match.group()
            if match.lastgroup == "name":
                lowered = value.lower()
                if lowered in KEYWORDS:
                    out.append(Token("keyword", lowered))
                else:
                    out.append(Token("name", value))
            elif match.lastgroup == "string":
                out.append(Token("string", value[1:-1]))
            elif match.lastgroup == "param":
                # extended-protocol placeholder $N (1-based)
                out.append(Token("param", value[1:]))
            elif match.lastgroup == "number":
                out.append(Token("number", value))
            else:
                out.append(Token("op", value))
        out.append(Token("eof", ""))
        return out
