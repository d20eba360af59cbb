"""``HashJoin`` against a nested-loop oracle, over every kind of build the
lookup distinguishes (dense or sparse, unique or not) and every kind of
key that reaches it (narrow and wide integers, floats, composites,
strings plain and coded, nothing at all)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.batch import Batch, DictColumn
from repro.engine.operators import (
    POSITION_SPAN,
    HashJoin,
    MergeJoin,
    Operator,
    VectorSource,
    _KeyLookup,
)

HOWS = ("inner", "left", "semi", "anti")


def _strings(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = [f"k{v}" for v in values]
    return out


def _ints(rng, n_build, n_probe, lo, hi, unique, dtype=np.int64):
    """Build and probe keys drawn from ``[lo, hi)``, every other probe key
    one the build has."""
    if unique:
        build = lo + rng.choice(hi - lo, size=min(n_build, hi - lo),
                                replace=False)
    else:
        build = rng.integers(lo, hi, n_build)
    probe = rng.integers(lo - 3, hi + 3, n_probe)
    if len(build):
        probe[::2] = rng.choice(build, size=len(probe[::2]))
    return [build.astype(dtype)], [probe.astype(np.int64)]


def unique_dense(rng, nb, n_probe):
    return _ints(rng, nb, n_probe, 10, 10 + 2 * nb + 1, unique=True)


def unique_sparse(rng, nb, n_probe):
    (build,), (probe,) = _ints(rng, nb, n_probe, 0, 4 * nb + 4, unique=True)
    return [build * POSITION_SPAN], [probe * POSITION_SPAN]


def duplicate_dense(rng, nb, n_probe):
    return _ints(rng, nb, n_probe, 0, max(nb // 3, 1), unique=False)


def duplicate_sparse(rng, nb, n_probe):
    (build,), (probe,) = _ints(rng, nb, n_probe, 0, max(nb // 3, 2),
                               unique=False)
    return [build * POSITION_SPAN], [probe * POSITION_SPAN]


def negative_keys(rng, nb, n_probe):
    return _ints(rng, nb, n_probe, -2 * nb - 5, -3, unique=bool(nb % 2))


def narrow_build_wide_probe(rng, nb, n_probe):
    build, (probe,) = _ints(rng, nb, n_probe, 0, nb + 5, unique=False,
                            dtype=np.int32)
    probe[1::4] += 2 ** 40  # keys no int32 can hold
    return build, [probe]


def float_probe(rng, nb, n_probe):
    build, (probe,) = _ints(rng, nb, n_probe, 0, nb + 5, unique=True)
    probe = probe.astype(np.float64)
    probe[1::4] += 0.5
    probe[3::8] = np.nan
    return build, [probe]


def float_probe_sparse_build(rng, nb, n_probe):
    (build,), (probe,) = float_probe(rng, nb, n_probe)
    return [build * POSITION_SPAN], [probe * POSITION_SPAN]


def composite(rng, nb, n_probe):
    (a,), (pa,) = _ints(rng, nb, n_probe, 0, 6, unique=False)
    (b,), (pb,) = _ints(rng, nb, n_probe, -2, 3, unique=False)
    return [a, _strings(b)], [pa, _strings(pb)]


def plain_strings(rng, nb, n_probe):
    (build,), (probe,) = _ints(rng, nb, n_probe, 0, nb + 2, unique=False)
    return [_strings(build)], [_strings(probe)]


def coded_strings(rng, nb, n_probe):
    """Coded on both sides, over different dictionaries."""
    (build,), (probe,) = plain_strings(rng, nb, n_probe)
    return [DictColumn.encode(build)], [DictColumn.encode(probe)]


def empty_build(rng, nb, n_probe):
    return _ints(rng, 0, n_probe, 0, 10, unique=False)


def empty_probe(rng, nb, n_probe):
    return _ints(rng, nb, 0, 0, nb + 1, unique=False)


def probe_outside(rng, nb, n_probe):
    build, (probe,) = _ints(rng, nb, n_probe, 100, 100 + nb + 1, unique=True)
    return build, [np.where(probe % 2, probe + 10 ** 6, probe - 10 ** 6)]


SHAPES = {f.__name__: f for f in (
    unique_dense, unique_sparse, duplicate_dense, duplicate_sparse,
    negative_keys, narrow_build_wide_probe, float_probe, composite,
    plain_strings, coded_strings, empty_build, empty_probe, probe_outside,
    float_probe_sparse_build)}


def _key_rows(columns):
    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def expected_lookup(build_keys) -> str:
    """What the build must have proved about itself: composite and string
    keys arrive as dense codes, a lone integer column as it is."""
    rows = _key_rows(build_keys)
    first = build_keys[0]
    searched = (len(build_keys) == 1 and rows and first.dtype != object
                and int(first.max()) - int(first.min())
                >= max(POSITION_SPAN, 8 * len(rows)))
    return (("sorted" if searched else "position")
            + ("+unique" if len(set(rows)) == len(rows) else ""))


def nested_loop(build_keys, probe_keys, how):
    """(probe row, build row or None) pairs, by comparing every probe row
    with every build row. A NaN equals nothing."""
    build, out = _key_rows(build_keys), []
    for prow, key in enumerate(_key_rows(probe_keys)):
        partners = [brow for brow, other in enumerate(build) if other == key]
        if how in ("inner", "left"):
            out += [(prow, brow) for brow in partners]
            if how == "left" and not partners:
                out.append((prow, None))
        elif bool(partners) == (how == "semi"):
            out.append((prow, None))
    return out


def run_join(build_keys, probe_keys, how, vector_size):
    build = {f"b{i}": col for i, col in enumerate(build_keys)}
    build["brow"] = np.arange(len(build_keys[0]))
    probe = {f"p{i}": col for i, col in enumerate(probe_keys)}
    probe["prow"] = np.arange(len(probe_keys[0]))
    op = HashJoin(VectorSource(build, vector_size),
                  VectorSource(probe, vector_size),
                  [f"b{i}" for i in range(len(build_keys))],
                  [f"p{i}" for i in range(len(probe_keys))],
                  how, build_payload=["brow"])
    op.vector_size = vector_size
    out = op.run_to_batch()
    prows = out.columns["prow"].tolist()
    if how == "left":
        brows = [brow if hit else None for brow, hit in
                 zip(out.columns["brow"].tolist(),
                     out.columns["__matched"].tolist())]
    elif how == "inner":
        brows = out.columns["brow"].tolist()
    else:
        assert "brow" not in out.columns
        brows = [None] * out.n
    return list(zip(prows, brows)), op.profile.lookups


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), how=st.sampled_from(HOWS),
       seed=st.integers(0, 2 ** 16), n_build=st.integers(1, 40),
       n_probe=st.integers(1, 70), vector_size=st.sampled_from([4, 16, 1024]))
def test_join_equals_a_nested_loop(shape, how, seed, n_build, n_probe,
                                   vector_size):
    rng = np.random.default_rng(seed)
    build_keys, probe_keys = SHAPES[shape](rng, n_build, n_probe)
    got, lookups = run_join(build_keys, probe_keys, how, vector_size)
    assert Counter(got) == Counter(nested_loop(build_keys, probe_keys, how))
    assert lookups == {expected_lookup(build_keys)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("how", HOWS)
def test_every_shape_with_every_join_type(shape, how):
    """The cross product above, once each whatever hypothesis draws."""
    rng = np.random.default_rng(len(shape))
    build_keys, probe_keys = SHAPES[shape](rng, 30, 50)
    got, _ = run_join(build_keys, probe_keys, how, 16)
    assert Counter(got) == Counter(nested_loop(build_keys, probe_keys, how))


def test_the_span_decides_between_position_and_search():
    wide = np.array([0, POSITION_SPAN], dtype=np.int64)
    assert _KeyLookup(wide).describe() == "sorted+unique"
    assert _KeyLookup(wide[:1] + np.arange(2)).describe() == "position+unique"
    # more rows than an eighth of the span: by position however wide
    many = np.arange(0, 4 * POSITION_SPAN, 4)
    assert _KeyLookup(many).describe() == "position+unique"
    assert _KeyLookup(np.array([1.0, 2.0, 2.0])).describe() == "sorted"


class _Vectors(Operator):
    """Leaf handing on the very batches it was given."""

    def __init__(self, batches):
        super().__init__(())
        self.batches = batches

    def _run(self):
        yield from self.batches


@pytest.mark.parametrize("how", ["inner", "left"])
def test_an_all_hit_vector_passes_its_probe_columns_by_reference(how):
    build = VectorSource({"k": np.arange(50), "name": _strings(range(50))})
    keys, values = np.array([7, 3, 3, 49]), np.array([1.0, 2.0, 3.0, 4.0])
    partial = Batch({"fk": np.array([5, 99]), "v": np.array([5.0, 6.0])}, 2)
    op = HashJoin(build, _Vectors([Batch({"fk": keys, "v": values}, 4),
                                   partial]), ["k"], ["fk"], how)
    op.vector_size = 2
    full, rest = list(op.execute())
    assert full.columns["fk"] is keys and full.columns["v"] is values
    assert full.columns["name"].tolist() == ["k7", "k3", "k3", "k49"]
    # a vector with a miss is gathered: new arrays, the hit (and for a
    # left join the miss, flagged) in them
    assert rest.columns["fk"].tolist() == ([5] if how == "inner" else [5, 99])
    if how == "left":
        assert full.columns["__matched"].all()
        assert rest.columns["__matched"].tolist() == [True, False]
    else:
        assert "__matched" not in full.columns


def test_merge_join_streams_its_left_input():
    """The right side is the build; the left is pulled a vector at a time
    and leaves joined before the next one is asked for."""
    pulled = []

    class Left(Operator):
        def _run(self):
            for start in range(0, 12, 4):
                pulled.append(start)
                yield Batch({"k": np.arange(start, start + 4),
                             "side": np.zeros(4)}, 4)

    right = VectorSource({"k2": np.array([1, 1, 6, 9]),
                          "side": np.ones(4)})
    op = MergeJoin(Left(()), right, "k", "k2")
    op.vector_size = 1
    stream = op.execute()
    first = next(stream)
    assert pulled == [0] and first.columns["k"].tolist() == [1, 1]
    out = [first] + list(stream)
    assert [k for b in out for k in b.columns["k"].tolist()] == [1, 1, 6, 9]
    # a column both sides have keeps the left side's values
    assert not any(b.columns["side"].any() for b in out)
    assert op.profile.lookups == {"position"}
    assert set(op.profile.kernels) == {"join.merge"}
