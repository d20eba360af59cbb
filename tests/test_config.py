"""Knob hygiene: a ``Config`` field exists only if something reads it.

Source-level checks keep the control plane at one default per knob:
every field of :class:`~repro.common.config.Config` is read as a plain
attribute somewhere in ``src/`` (so none is dead), nothing in ``src/``
reaches for a ``Config`` field or a ``VectorHCluster`` attribute through
``getattr(obj, "name", default)`` -- the spelling that lets a second
default, or an "attribute may be missing" branch, creep back in -- and
every :class:`~repro.mpp.plan.RewriterFlags` field is set by some test
or bench (a toggle nothing turns is its default behaviour) and read in
``src/`` outside the module that declares it (one nothing reads changes
nothing). One more guards a seam: only :mod:`repro.pdt` knows what a
delta batch is made of.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import repro
from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.mpp.plan import RewriterFlags

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent

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


def test_every_rewriter_flag_is_set_by_a_test_or_a_bench():
    text = "\n".join(path.read_text()
                     for tree in ("tests", "benchmarks")
                     for path in sorted((ROOT / tree).rglob("*.py")))
    names = [f.name for f in dataclasses.fields(RewriterFlags)]
    unset = [name for name in names
             if not re.search(rf"\b{name}\s*=(?!=)", text)]
    assert unset == []


def test_every_rewriter_flag_is_read_in_src():
    text = "\n".join(_sources(skip="plan.py").values())
    names = [f.name for f in dataclasses.fields(RewriterFlags)]
    unread = [name for name in names
              if not re.search(rf"\.{name}\b", text)]
    assert unread == []


#: what only :mod:`repro.pdt` may name: the module of delta batches, the
#: batch class and its kinds
_PDT_INSIDES = re.compile(r"repro\.pdt\.entries|from repro\.pdt import[^\n]*"
                          r"\bentries\b|\bDeltaBatch\b|\bEntryKind\b")


def test_only_repro_pdt_names_a_delta_batch():
    paths = [path for tree in ("src", "tests", "benchmarks", "examples")
             for path in sorted((ROOT / tree).rglob("*.py"))
             if SRC / "pdt" not in path.parents
             and path != pathlib.Path(__file__).resolve()]
    assert len(paths) > 100
    offenders = [f"{path.relative_to(ROOT)}: {match.group(0)}"
                 for path in paths
                 for match in _PDT_INSIDES.finditer(path.read_text())]
    assert offenders == []
