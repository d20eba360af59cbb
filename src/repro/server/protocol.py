"""Simulated wire protocol: message shapes and deterministic sizing.

Models the two client flows a VectorH server speaks (the shapes follow
the PostgreSQL conventions most SQL-on-Hadoop frontends adopt):

* **simple protocol** -- one ``Query`` message carries the SQL text, the
  server answers ``RowDescription`` + data + ``CommandComplete`` +
  ``ReadyForQuery``.
* **extended protocol** -- ``Parse`` (name a statement template with
  ``$N`` placeholders), ``Bind`` (attach parameter values, creating a
  portal), ``Execute`` (run the portal). Prepared statements are
  first-class: the template is parsed and fingerprinted once, every
  execution reuses it.

Nothing actually crosses a socket: what the simulation reproduces is the
*byte accounting*. :func:`encode` renders a deterministic byte string
(1-byte tag + 4-byte length + NUL-joined fields, the classic v3 layout)
and :func:`wire_size` is its length, so twin runs charge identical
``server_bytes_{sent,received}_total``. Result rows are charged from
:func:`repro.engine.batch.batch_bytes` rather than materializing one
``DataRow`` per tuple -- same determinism, none of the per-row object
cost at thousands of clients.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

_HEADER_BYTES = 5  # 1-byte message tag + 4-byte big-endian length


@dataclass(frozen=True)
class _Message:
    """Base: field values NUL-joined into the payload, in order."""

    TAG = "?"

    def parts(self) -> Tuple[str, ...]:
        return tuple(str(getattr(self, f.name)) for f in fields(self))


# ---------------------------------------------------------------- frontend

@dataclass(frozen=True)
class Query(_Message):
    """Simple protocol: one statement, text in, rows out."""

    TAG = "Q"
    sql: str


@dataclass(frozen=True)
class Parse(_Message):
    """Extended protocol: register a named statement template."""

    TAG = "P"
    name: str
    sql: str


@dataclass(frozen=True)
class Bind(_Message):
    """Extended protocol: bind parameter values, creating a portal."""

    TAG = "B"
    portal: str
    statement: str
    params: Tuple[object, ...] = ()


@dataclass(frozen=True)
class Execute(_Message):
    """Extended protocol: run a bound portal."""

    TAG = "E"
    portal: str


@dataclass(frozen=True)
class Terminate(_Message):
    """Client hangs up."""

    TAG = "X"


# ----------------------------------------------------------------- backend

@dataclass(frozen=True)
class RowDescription(_Message):
    TAG = "T"
    columns: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CommandComplete(_Message):
    TAG = "Z"  # noqa: the tag letter is arbitrary in the simulation
    tag: str = "SELECT"
    rows: int = 0


@dataclass(frozen=True)
class ReadyForQuery(_Message):
    TAG = "R"
    status: str = "I"  # idle


@dataclass(frozen=True)
class ParseComplete(_Message):
    TAG = "1"


@dataclass(frozen=True)
class BindComplete(_Message):
    TAG = "2"


def encode(message: _Message) -> bytes:
    """Deterministic rendering: tag byte, length word, NUL-joined fields."""
    payload = "\x00".join(message.parts()).encode("utf-8", "replace")
    length = (_HEADER_BYTES - 1 + len(payload)).to_bytes(4, "big")
    return message.TAG.encode("ascii")[:1] + length + payload


def wire_size(message: _Message) -> int:
    """Bytes this message occupies on the simulated wire."""
    return len(encode(message))
