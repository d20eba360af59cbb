"""Knob hygiene: a ``Config`` field exists only if something reads it.

Two source-level checks keep the control plane at one default per knob:
every field of :class:`~repro.common.config.Config` is read as a plain
attribute somewhere in ``src/`` (so none is dead), and nothing in
``src/`` reaches for a ``Config`` field or a ``VectorHCluster`` attribute
through ``getattr(obj, "name", default)`` -- the spelling that lets a
second default, or an "attribute may be missing" branch, creep back in.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import repro
from repro.cluster import VectorHCluster
from repro.common.config import Config

SRC = pathlib.Path(repro.__file__).parent

#: fields nothing in ``src/`` reads, each with the reason it stays
UNREAD_ALLOWED: dict = {}

_GETATTR_LITERAL = re.compile(r'getattr\(\s*[^,()]+(?:\([^()]*\))?,\s*"(\w+)"')


def _sources(skip: str = ""):
    return {path: path.read_text() for path in sorted(SRC.rglob("*.py"))
            if path.name != skip}


def test_every_config_field_is_read_in_src():
    text = "\n".join(_sources(skip="config.py").values())
    names = [f.name for f in dataclasses.fields(Config)]
    unread = [name for name in names
              if not re.search(rf"\.{name}\b", text)]
    assert unread == sorted(UNREAD_ALLOWED), unread
    assert len(names) <= 24  # 39 before the control plane was de-duplicated


def test_no_getattr_with_a_default_for_config_or_cluster_attributes():
    cluster = VectorHCluster(n_nodes=2, config=Config().scaled_for_tests())
    reserved = {f.name for f in dataclasses.fields(Config)} | {
        name for name in dir(cluster) if not name.startswith("__")}
    offenders = [
        f"{path.relative_to(SRC)}: getattr(..., {match.group(1)!r})"
        for path, text in _sources().items()
        for match in _GETATTR_LITERAL.finditer(text)
        if match.group(1) in reserved]
    assert offenders == []
