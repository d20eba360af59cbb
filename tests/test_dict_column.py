"""A dictionary-coded string column is the object array it stands for.

Every operation the engine performs on a :class:`DictColumn` -- slice,
mask, take, concatenate (one dictionary, several, a plain array among
them), compare / IN / LIKE / SUBSTRING against a literal, rank, order,
hash, materialise -- must give what the same operation gives on the plain
object array, whatever the dictionary looks like: exactly the values
present, a superset of them (what a filtered scan leaves), or what a PDICT
block with exceptions decodes to.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import STRING
from repro.compression import SCHEMES
from repro.engine.batch import (
    Batch, DictColumn, EntryMemo, batch_bytes, concat_batches,
    concat_columns, full_vectors, hash_inputs, materialized, order_key,
    recode,
)
from repro.engine.expressions import (
    Between, Case, Col, Const, Eq, Ge, Gt, InList, Le, Like, Lt, Ne, Substr,
)
from repro.engine.operators import _lookup, _rank, _ranks, stable_order

WORDS = ["", "a", "ab", "abc", "b", "MAIL", "SHIP", "Zürich", "日本", "é"]
strings = st.sampled_from(WORDS) | st.text("abé", max_size=3)
values_st = st.lists(strings, max_size=40)


def plain_of(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@st.composite
def columns(draw):
    """``(plain, coded)``: the same strings both ways, the coded one over
    a dictionary with 0..n entries no row uses."""
    values = draw(values_st)
    unused = draw(st.lists(strings, max_size=6))
    coded = DictColumn.encode(values + unused)[:len(values)]
    return plain_of(values), coded


def same(coded, plain):
    """``coded`` (a column or an array) holds exactly ``plain``."""
    assert len(coded) == len(plain)
    assert np.asarray(coded).dtype == np.asarray(plain).dtype
    assert np.asarray(coded).tolist() == np.asarray(plain).tolist()


def well_formed(col: DictColumn):
    entries = col.dictionary.tolist()
    assert entries == sorted(set(entries)), "not sorted and distinct"
    assert col.dictionary.dtype == object
    assert col.codes.dtype.kind == "i"
    assert ((col.codes >= 0) & (col.codes < max(1, len(entries)))).all()


@given(columns(), st.data())
@settings(max_examples=150, deadline=None)
def test_looks_like_its_object_array(pair, data):
    plain, coded = pair
    well_formed(coded)
    same(coded, plain)
    assert coded.dtype == plain.dtype and coded.shape == plain.shape
    assert coded.tolist() == list(coded) == plain.tolist()
    same(materialized({"s": coded})["s"], plain)
    n = len(plain)
    lo, hi = sorted((data.draw(st.integers(0, n)),
                     data.draw(st.integers(0, n))))
    same(coded[lo:hi], plain[lo:hi])
    assert coded[lo:hi].dictionary is coded.dictionary
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    same(coded[mask], plain[mask])
    index = np.array(data.draw(st.lists(st.integers(0, max(0, n - 1)),
                                        max_size=8 if n else 0)), dtype=int)
    same(coded[index], plain[index])
    if n:
        assert coded[n - 1] == plain[n - 1]
    well_formed(coded.compacted())
    same(coded.compacted(), plain)
    assert set(coded.compacted().dictionary) == set(plain)


@given(columns(), columns(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_concatenation(left, right, as_batches):
    (p1, c1), (p2, c2) = left, right
    if as_batches:
        def glue(parts):
            return concat_batches(
                [Batch({"s": p}, len(p)) for p in parts]).columns["s"]
        # empty batches are skipped, a stream of nothing keeps the schema
        expected = np.concatenate([p for p in (p1, p2) if len(p)] or [p1])
    else:
        glue, expected = concat_columns, np.concatenate([p1, p2])
    both = glue([c1, c2])
    if isinstance(both, DictColumn):
        well_formed(both)
    same(both, expected)
    # one dictionary object: it is kept, nothing is merged
    cut = len(p1) // 2
    if not as_batches or (cut and len(p1) - cut):
        again = glue([c1[:cut], c1[cut:]])
        assert again.dictionary is c1.dictionary
        same(again, p1)
    # a plain part makes the result plain
    mixed = glue([c1, p2])
    if len(p1) and len(p2) or not as_batches:
        assert isinstance(mixed, np.ndarray)
    same(mixed, expected)


@given(columns(), strings)
@settings(max_examples=150, deadline=None)
def test_comparisons_with_a_literal(pair, literal):
    plain, coded = pair
    cols_p, cols_c = {"s": plain}, {"s": coded}
    for cls in (Eq, Ne, Lt, Le, Gt, Ge):
        for expr in (cls(Col("s"), Const(literal)),
                     cls(Const(literal), Col("s"))):
            got = expr.eval(cols_c)
            assert got.dtype == bool
            assert got.tolist() == np.asarray(expr.eval(cols_p)).tolist()
    other = min(literal, "b"), max(literal, "b")
    for expr in (Between(Col("s"), *other),
                 InList(Col("s"), [literal, "ab", "nope"]),
                 Like(Col("s"), literal[:1] + "%"),
                 Like(Col("s"), "%" + literal[-1:], negate=True),
                 Like(Col("s"), "a_%")):
        for _ in range(2):  # the second time out of the expression's memo
            got = expr.eval(cols_c)
            assert got.tolist() == np.asarray(expr.eval(cols_p)).tolist()
    cut = Substr(Col("s"), 1, 2)
    got = cut.eval(cols_c)
    assert isinstance(got, DictColumn)
    well_formed(got)
    same(got, cut.eval(cols_p))
    case = Case(Col("s") == literal, Col("s"), "other")
    same(case.eval(cols_c), case.eval(cols_p))
    # rows of one plain column agree with themselves; so do coded ones
    assert (coded == coded).tolist() == [True] * len(plain)
    assert (coded[::-1] < coded).tolist() == (plain[::-1] < plain).tolist()


@given(columns(), columns())
@settings(max_examples=100, deadline=None)
def test_two_columns_over_different_dictionaries(left, right):
    (p1, c1), (p2, c2) = left, right
    n = min(len(p1), len(p2))
    for op in (np.equal, np.not_equal, np.less, np.greater_equal):
        assert op(c1[:n], c2[:n]).tolist() == op(p1[:n], p2[:n]).tolist()
        assert op(c1[:n], p2[:n]).tolist() == op(p1[:n], p2[:n]).tolist()
    # the probe side's strings as codes of the build side's dictionary
    build = DictColumn.encode(p1.tolist())
    memo = EntryMemo()
    for _ in range(2):
        for probe in (c2, p2):
            codes = recode(probe, build.dictionary, memo)
            expected = [build.dictionary.tolist().index(v)
                        if v in set(p1) else -1 for v in p2.tolist()]
            assert codes.tolist() == expected
    # ...and as the ranks a join build gave its keys, whichever side is
    # coded
    for build_col in (c1, p1):
        if len(build_col) == 0:
            continue
        _, dictionary = _ranks(build_col)
        want = _lookup(_ranks(p1)[1], p2)
        for probe in (c2, p2):
            assert _lookup(dictionary, probe).tolist() == want.tolist()


@given(columns(), st.lists(st.integers(-2, 2), max_size=40), st.booleans(),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_rank_order_and_hash(pair, numbers, asc_s, asc_n):
    plain, coded = pair
    n = len(plain)
    numbers = np.resize(np.array(numbers + [0], dtype=np.int64), n)
    assert _ranks(coded)[0].tolist() == _ranks(plain)[0].tolist()
    assert len(_ranks(coded)[1]) == len(_ranks(plain)[1])
    for keys_c, keys_p in (([coded], [plain]),
                           ([coded, numbers], [plain, numbers]),
                           ([numbers, coded, coded], [numbers, plain, plain])):
        got, want = _rank(keys_c, n), _rank(keys_p, n)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
    if n:
        got = stable_order({"s": coded, "x": numbers}, ["s", "x"],
                           [asc_s, asc_n])
        want = stable_order({"s": plain, "x": numbers}, ["s", "x"],
                            [asc_s, asc_n])
        assert got.tolist() == want.tolist()
    assert np.argsort(order_key(coded), kind="stable").tolist() == \
        np.argsort(_ranks(plain)[0], kind="stable").tolist()
    assert hash_inputs(coded).tolist() == hash_inputs(plain).tolist()


@given(columns(), st.lists(strings, max_size=5))
@settings(max_examples=100, deadline=None)
def test_a_pdt_s_strings_join_the_dictionary(pair, fresh):
    plain, coded = pair
    wider, codes = coded.with_values(fresh)
    well_formed(wider)
    same(wider, plain)
    assert wider.dictionary[codes].tolist() == fresh


def test_a_pdt_s_known_strings_keep_the_dictionary_object():
    """Strings the dictionary holds already leave the column over the
    very same object -- the one every other block of the column shares --
    so a merged scan keeps grouping and joining by codes."""
    coded = DictColumn.encode(["MAIL", "SHIP", "AIR", "RAIL"])[:2]
    same_col, codes = coded.with_values(["RAIL", "MAIL", "RAIL"])
    assert same_col is coded and same_col.dictionary is coded.dictionary
    assert codes.dtype == np.int32
    assert coded.dictionary[codes].tolist() == ["RAIL", "MAIL", "RAIL"]
    wider, _ = coded.with_values(["RAIL", "TRUCK"])
    assert wider.dictionary is not coded.dictionary


def test_batch_bytes_counts_codes_and_the_dictionary_once():
    coded = DictColumn.encode(["MAIL", "SHIP"] * 500)
    assert batch_bytes(Batch({"s": coded}, 1000)) == 4 * 1000 + 2 * (4 + 4)
    # a sliver of a column over a large dictionary ships no more entries
    # than it has rows
    wide = DictColumn.encode([f"{i:04d}" for i in range(1000)])[:3]
    assert batch_bytes(Batch({"s": wide}, 3)) == 4 * 3 + 3 * (4 + 4)
    assert batch_bytes(Batch({"s": coded[:0]}, 0)) == 0


def test_full_vectors_merges_dictionaries_of_the_slivers():
    parts = [DictColumn.encode(["b", "a"]), DictColumn.encode(["c", "a"]),
             DictColumn.encode(["é", ""])]
    out = list(full_vectors(
        (Batch({"s": p}, 2) for p in parts), vector_size=4))
    assert [b.n for b in out] == [4, 2]
    assert out[0].columns["s"].tolist() == ["b", "a", "c", "a"]
    well_formed(out[0].columns["s"])
    assert out[1].columns["s"] is parts[2]


@pytest.mark.parametrize("rare", (0, 3, 40))
def test_pdict_block_decodes_to_codes_with_exceptions_as_entries(rare):
    """A skewed block: a few frequent values in the dictionary, ``rare``
    singletons (and whatever compulsory exceptions the chain needs) stored
    as exceptions -- all of them entries of the decoded column."""
    rng = np.random.default_rng(rare)
    values = plain_of(["N", "A", "R", ""] * 200)
    values[rng.choice(len(values), rare, replace=False)] = [
        f"rare-{i}-é" for i in range(rare)]
    values = values[rng.permutation(len(values))]
    block = SCHEMES["PDICT"].compress(values, STRING)
    _, _, n_exceptions, n_dict = struct.unpack_from("<iiii", block.data)
    assert (n_exceptions > 0) == (rare > 0)
    decoded = SCHEMES["PDICT"].decompress([block], STRING)
    assert isinstance(decoded, DictColumn)
    well_formed(decoded)
    assert decoded.codes.dtype == np.int32
    assert len(decoded.dictionary) == len(set(values.tolist()))
    same(decoded, values)


def test_a_sliver_over_a_large_dictionary_never_walks_it():
    """Ranking sorts the few codes instead of counting over 20,000
    entries; per-entry functions and merges see only the entries in use."""
    entries = [f"{i:05d}" for i in range(20000)]
    whole = DictColumn.encode(entries)
    rows = np.array([19999, 3, 3, 12345, 0], dtype=np.int32)
    sliver, plain = whole[rows], plain_of([entries[i] for i in rows])
    assert _ranks(sliver)[0].tolist() == _ranks(plain)[0].tolist() == \
        [3, 1, 1, 2, 0]
    seen = []
    hit = sliver.map_entries(lambda e: seen.append(len(e)) or e == "00003",
                             EntryMemo())
    assert hit.tolist() == [False, True, True, False, False] and seen == [4]
    merged = concat_columns([sliver, DictColumn.encode(["x"])])
    assert len(merged.dictionary) == 5
    same(merged, np.append(plain, "x"))
    assert hash_inputs(sliver).tolist() == hash_inputs(plain).tolist()
