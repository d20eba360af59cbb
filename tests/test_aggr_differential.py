"""HashAggr against the dict-and-tuple algorithm it replaced.

``reference_group_by`` is the aggregation this repo ran before HashAggr
became rank -> fold -> merge: one Python tuple per row, a dict from key
tuple to group id, accumulators indexed by that id. It is kept here as
the oracle: same columns, same row order, ``==`` on every float.
"""

import numpy as np
import pytest

from repro.engine import operators
from repro.engine.batch import (
    Batch, DictColumn, batches_from_columns, concat_columns,
)
from repro.engine.expressions import Col
from repro.engine.operators import HashAggr, Operator

VECTOR_SIZES = (4, 64, 1024, 4096)
AGGREGATES = (
    ("s", "sum", Col("v")), ("n", "count", None), ("a", "avg", Col("v")),
    ("lo", "min", Col("v")), ("hi", "max", Col("v")),
    ("d", "count_distinct", Col("w")), ("si", "sum", Col("w")),
    ("slo", "min", Col("t")), ("shi", "max", Col("t")),
    ("sd", "count_distinct", Col("t")),
)


def reference_group_by(batches, group_by, aggregates):
    key_index = {}
    state = {name: [] for name, _, _ in aggregates}
    counts = {name: [] for name, _, _ in aggregates}
    for batch in batches:
        row_keys = (list(zip(*(batch.columns[k].tolist() for k in group_by)))
                    if group_by else [()] * batch.n)
        for key in sorted(set(row_keys)):  # sorted within a vector
            if key not in key_index:
                key_index[key] = len(key_index)
                for name, func, _ in aggregates:
                    state[name].append(set() if func == "count_distinct"
                                       else 0.0 if func in ("sum", "avg")
                                       else None)
                    counts[name].append(0)
        gids = np.array([key_index[k] for k in row_keys], dtype=np.int64)
        n_groups = len(key_index)
        for name, func, expr in aggregates:
            values = None if expr is None else expr.eval(batch.columns)
            if func in ("sum", "avg"):
                partial = np.bincount(gids, np.asarray(values, np.float64),
                                      minlength=n_groups).tolist()
                state[name] = [a + b for a, b in zip(state[name], partial)]
            if func in ("count", "avg"):
                for gid in gids.tolist():
                    counts[name][gid] += 1
            if func in ("min", "max", "count_distinct"):
                for gid, value in zip(gids.tolist(), values.tolist()):
                    held = state[name][gid]
                    if func == "count_distinct":
                        held.add(value)
                    elif held is None:
                        state[name][gid] = value
                    else:
                        state[name][gid] = (min if func == "min"
                                            else max)(held, value)
    if not key_index and not group_by:  # a total aggregate of nothing
        return {name: [0] for name, _, _ in aggregates}
    out = {k: [key[i] for key in key_index] for i, k in enumerate(group_by)}
    for name, func, _ in aggregates:
        if func == "count":
            out[name] = counts[name]
        elif func == "avg":
            out[name] = [s / c for s, c in zip(state[name], counts[name])]
        elif func == "count_distinct":
            out[name] = [len(seen) for seen in state[name]]
        else:
            out[name] = state[name]
    return out


class Batches(Operator):
    """Leaf handing on exactly the batches it was given."""

    def __init__(self, batches):
        super().__init__(())
        self.batches = batches

    def _run(self):
        yield from self.batches


def _strings(rng, cardinality, n):
    pool = np.empty(cardinality, dtype=object)
    pool[:] = [f"k{v:x}" for v in rng.permutation(cardinality)]
    return pool[rng.integers(0, cardinality, n)]


KEY_KINDS = {
    "int64": lambda rng, card, n: rng.integers(-card // 2, card - card // 2,
                                               n).astype(np.int64),
    "int32": lambda rng, card, n: rng.integers(0, card, n).astype(np.int32),
    "date": lambda rng, card, n: (9000 + rng.integers(0, card, n)
                                  ).astype(np.int32),
    "float": lambda rng, card, n: rng.integers(0, card, n) / 8.0 - 1.0,
    "string": _strings,
}


def random_case(seed):
    """(batches, group_by, aggregates, vector_size) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    vector = VECTOR_SIZES[seed % len(VECTOR_SIZES)]
    n = int(rng.choice([0, 1, vector - 1, vector, 3 * vector + 1,
                        int(rng.integers(0, 7 * vector))]))
    n = min(n, 9000)
    kinds = rng.choice(sorted(KEY_KINDS), size=int(rng.integers(0, 5)))
    columns = {}
    for pos, kind in enumerate(kinds):
        cardinality = int(rng.choice([1, 2, 7, vector, 3 * vector]))
        columns[f"k{pos}"] = KEY_KINDS[kind](rng, cardinality, n)
    columns["v"] = rng.uniform(-1e6, 1e6, n)
    columns["w"] = rng.integers(0, 5, n)
    columns["t"] = _strings(rng, 11, n)
    batches = list(batches_from_columns(columns, vector))
    for _ in range(int(rng.integers(0, 3))):  # empty vectors in the stream
        batches.insert(int(rng.integers(0, len(batches) + 1)),
                       Batch.empty_like(batches[0]))
    picked = rng.permutation(len(AGGREGATES))[:int(rng.integers(1, 6))]
    return (batches, [f"k{pos}" for pos in range(len(kinds))],
            [AGGREGATES[i] for i in sorted(picked)], vector)


def coded_case(seed):
    """:func:`random_case` with string columns dictionary-coded, three
    ways by seed: every string column over one dictionary for the whole
    stream (what one partition's scan hands up); every batch over its own
    (what arrives through an exchange, so the partials' dictionaries
    differ); or only every other string column coded, the rest plain."""
    batches, group_by, aggregates, vector = random_case(seed)
    names = [k for k, v in batches[0].columns.items() if v.dtype == object]
    if seed % 3 == 2:
        names = names[::2]
    if seed % 3 == 0:
        whole = {k: DictColumn.encode(np.concatenate(
            [b.columns[k] for b in batches]).tolist()) for k in names}
    start = 0
    for batch in batches:
        for k in names:
            batch.columns[k] = (whole[k][start: start + batch.n]
                                if seed % 3 == 0
                                else DictColumn.encode(batch.columns[k]))
        start += batch.n
    return batches, group_by, aggregates, vector


def check_case(batches, group_by, aggregates, vector, seed=None):
    """HashAggr over ``batches`` against the reference; returns it."""
    expected = reference_group_by(batches, group_by, aggregates)
    op = HashAggr(Batches(batches), group_by, aggregates)
    op.vector_size = vector
    out = op.run_to_batch()
    assert list(out.columns) == list(expected)
    for name, want in expected.items():
        assert out.columns[name].tolist() == want, (seed, name)
    for key in group_by:  # keys are never widened, nor spelled out
        assert out.columns[key].dtype == batches[0].columns[key].dtype
        coded = all(isinstance(b.columns[key], DictColumn) for b in batches)
        assert isinstance(out.columns[key], DictColumn) == coded, seed
    return op


def check_chunk(chunk, case=random_case):
    """Compare 100 seeded cases; returns how many merged mid-stream."""
    merged_mid_stream = 0
    for seed in range(chunk * 100, chunk * 100 + 100):
        op = check_case(*case(seed), seed=seed)
        merge = op.profile.kernels.get("aggr.merge")
        merged_mid_stream += merge is not None and merge.calls > 1
    return merged_mid_stream


@pytest.mark.parametrize("chunk", range(6))
def test_matches_reference_on_random_group_bys(chunk):
    check_chunk(chunk)


@pytest.mark.parametrize("chunk", range(6))
def test_coded_string_keys_and_values_match_reference(chunk, monkeypatch):
    """One, two and more key columns, coded, integer and plain strings
    mixed; min / max / count_distinct over a coded column; merges (here
    forced mid-stream too) of partials whose dictionaries differ."""
    monkeypatch.setattr(operators, "MERGE_AFTER_VECTORS", chunk % 2)
    check_chunk(chunk, coded_case)


@pytest.mark.parametrize("chunk", range(6))
def test_mid_stream_merges_change_nothing(chunk, monkeypatch):
    """With the threshold at zero to two vectors, inputs merge mid-stream.
    A sum is its vectors' partials added in arrival order from 0.0
    wherever a merge falls (0.0 + merged == merged), so even the floats
    stay ``==`` -- tighter than the last-ulp slack a re-association
    would need."""
    monkeypatch.setattr(operators, "MERGE_AFTER_VECTORS", chunk % 3)
    assert check_chunk(chunk) >= 5


def test_empty_input_keeps_key_dtypes_and_total_returns_one_row():
    empty = Batch({"g": np.empty(0, np.int32), "v": np.empty(0)}, 0)
    out = HashAggr(Batches([empty]), ["g"],
                   [("s", "sum", Col("v"))]).run_to_batch()
    assert out.n == 0 and out.columns["g"].dtype == np.int32
    out = HashAggr(Batches([empty]), [], [
        ("s", "sum", Col("v")), ("lo", "min", Col("v"))]).run_to_batch()
    assert out.n == 1 and out.columns["s"].tolist() == [0.0]
    assert out.columns["lo"].tolist() == [0]


@pytest.mark.parametrize("group_by", (["g"], ["g", "h"], []))
def test_a_child_without_a_single_batch_still_names_every_column(group_by):
    """Hand-built trees may yield no schema batch; the executor's never do."""
    expected = reference_group_by([], group_by, AGGREGATES)
    out = HashAggr(Batches([]), group_by, AGGREGATES).run_to_batch()
    assert list(out.columns) == list(expected)
    for name, want in expected.items():
        assert out.columns[name].tolist() == want, name


# ------------------------------------------------- the direct path

DIRECT_AGGREGATES = (
    ("s", "sum", Col("v")), ("n", "count", None), ("a", "avg", Col("v")),
    ("si", "sum", Col("w")),
)


@pytest.fixture
def direct_vectors(monkeypatch):
    """How many vectors HashAggr added up by slot, and how often it turned
    its slot arrays into a partial."""
    seen = {"add": 0, "partial": 0}
    add, partial = operators._Slots.add, operators._Slots.partial

    def counted_add(self, *args):
        seen["add"] += 1
        return add(self, *args)

    def counted_partial(self):
        seen["partial"] += 1
        return partial(self)

    monkeypatch.setattr(operators._Slots, "add", counted_add)
    monkeypatch.setattr(operators._Slots, "partial", counted_partial)
    return seen


def direct_case(seed, sizes=None):
    """Zero to three coded string keys, each over one dictionary for the
    whole stream (entries no row uses among them, as a column's shared
    dictionary has), and only sum / count / avg: the direct path's
    input."""
    rng = np.random.default_rng(seed)
    vector = VECTOR_SIZES[seed % len(VECTOR_SIZES)]
    n = min(9000, int(rng.choice([0, 1, vector - 1, vector, 3 * vector + 1,
                                  int(rng.integers(0, 7 * vector))])))
    if sizes is None:
        sizes = [int(rng.choice([1, 2, 7, 40]))
                 for _ in range(int(rng.integers(0, 4)))]
    columns = {}
    for pos, size in enumerate(sizes):
        entries = [f"k{pos}-{i:05d}" for i in range(size)]
        used = rng.integers(0, size, n)
        if size > 1:  # leave the last entry unused
            used %= size - 1
        dictionary = DictColumn.encode(entries).dictionary
        columns[f"k{pos}"] = DictColumn(used.astype(np.int32), dictionary)
    columns["v"] = rng.uniform(-1e6, 1e6, n)
    columns["w"] = rng.integers(0, 5, n)
    batches = list(batches_from_columns(columns, vector))
    for _ in range(int(rng.integers(0, 3))):
        batches.insert(int(rng.integers(0, len(batches) + 1)),
                       Batch.empty_like(batches[0]))
    picked = rng.permutation(len(DIRECT_AGGREGATES))[:int(rng.integers(1, 5))]
    return (batches, [f"k{pos}" for pos in range(len(sizes))],
            [DIRECT_AGGREGATES[i] for i in sorted(picked)], vector)


@pytest.mark.parametrize("chunk", range(3))
def test_direct_path_matches_reference(chunk, direct_vectors):
    """Coded keys over the stream's dictionaries, sum / count / avg only:
    every vector is added up by slot, nothing is ranked or merged, and
    every float is still ``==`` the reference's."""
    assert check_chunk(chunk, direct_case) == 0
    seeds = range(chunk * 100, chunk * 100 + 100)
    assert direct_vectors == {
        "add": sum(len(direct_case(seed)[0]) for seed in seeds),
        "partial": len(seeds)}


@pytest.mark.parametrize("chunk", range(3))
def test_a_dictionary_changing_mid_stream_leaves_the_direct_path(
        chunk, direct_vectors, monkeypatch):
    """From a vector on, a key arrives over another dictionary (a merged
    one, its own, or as plain strings): what the slots hold becomes one
    partial, once, and the rest ranks, folds and merges (here also
    mid-stream) -- with the same answer."""
    monkeypatch.setattr(operators, "MERGE_AFTER_VECTORS", chunk % 2)
    switched = 0
    for seed in range(chunk * 100, chunk * 100 + 100):
        batches, group_by, aggregates, vector = direct_case(
            seed, sizes=[7, 3][:1 + seed % 2])
        rows = [i for i, b in enumerate(batches) if b.n]
        if not rows or rows[-1] == 0:
            continue
        at = rows[1 + seed % (len(rows) - 1)] if len(rows) > 1 else rows[0]
        key = group_by[seed % len(group_by)]
        for batch in batches[max(at, 1):]:
            col = batch.columns[key]
            batch.columns[key] = (
                DictColumn.encode(col.tolist()) if seed % 3 == 0
                else np.asarray(col) if seed % 3 == 1
                else concat_columns([col, DictColumn.encode(["zz"])])[
                    :len(col)])
        partials = direct_vectors["partial"]
        check_case(batches, group_by, aggregates, vector, seed)
        assert direct_vectors["partial"] - partials == 1, seed
        switched += 1
    assert switched >= 40


@pytest.mark.parametrize("sizes,direct", [
    ([256, 256], True), ([257, 256], False), ([2, 2, 1 << 14], True),
    ([3, 2, 1 << 14], False)])
def test_a_domain_past_direct_slots_ranks(sizes, direct, direct_vectors):
    """The key dictionaries' entry counts multiplied: up to DIRECT_SLOTS
    (2^16) slots are arrays, one more and the stream ranks from its first
    vector -- with the same answer either way."""
    assert operators.DIRECT_SLOTS == 1 << 16
    for seed in range(4):
        batches, group_by, aggregates, vector = direct_case(seed, sizes)
        check_case(batches, group_by, aggregates, vector)
    assert (direct_vectors["add"] > 0) == direct
    assert direct_vectors["partial"] == (4 if direct else 0)


def test_min_max_or_a_plain_key_keep_the_general_path(direct_vectors):
    batches, group_by, aggregates, vector = direct_case(7, sizes=[7, 3])
    check_case(batches, group_by, aggregates + [("lo", "min", Col("v"))],
               vector)
    for batch in batches:
        batch.columns["k1"] = np.asarray(batch.columns["k1"])
    check_case(batches, group_by, aggregates, vector)
    assert direct_vectors["add"] == 0
