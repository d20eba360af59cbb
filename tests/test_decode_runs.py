"""Decoding a run of blocks at once against decoding them one by one.

``BlockCursor.read`` fetches the blocks a range needs and decodes each
stretch of one scheme with one ``decompress`` call. Whatever the blocks --
widths that change, exception chains, a dictionary that grows, ragged
ends -- every read must give exactly what decoding each block alone and
joining the slices with ``concat_stored`` gives, and the rows written.
"""

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import Config
from repro.common.types import DATE, FLOAT64, INT64, STRING
from repro.compression import SCHEMES
from repro.compression.base import StringImage, concat_stored
from repro.engine.batch import Batch, DictColumn, batch_bytes
from repro.hdfs import HdfsCluster, VectorHPlacementPolicy
from repro.storage import Column, PartitionStore, TableSchema
from repro.storage import colstore
from repro.storage.colstore import BlockCursor

WORDS = np.array(["A", "N", "R", "O", "", "né"], dtype=object)


def _ints(rng, k, block, ctype):
    """Values of one block of a bit width of their own, some ~50 of
    them far outside it (exceptions)."""
    width = int(rng.choice([3, 11, 23, 24]))
    values = rng.integers(-500, 500) + rng.integers(0, 1 << width, k)
    far = 1 << (30 if ctype is DATE else 40)
    for _ in range(int(rng.choice([0, 1, 50]))):
        values[rng.integers(0, k)] = rng.integers(-far, far)
    return values.astype(ctype.dtype)


def _ascending(rng, k, block, ctype):
    steps = rng.integers(0, 1 << int(rng.choice([2, 9, 20])), k)
    steps[rng.random(k) < 0.02] = -(1 << 35)  # exceptions in the gaps
    return (rng.integers(0, 1 << 30) + np.cumsum(steps)).astype(np.int64)


def _few_ints(rng, k, block, ctype):
    values = rng.choice(np.array([7, -3, 1000, 1 << 33]), k)
    rare = rng.random(k) < 0.03
    values[rare] = rng.integers(-(1 << 40), 1 << 40, int(rare.sum()))
    return values.astype(np.int64)


def _strings(rng, k, block, ctype):
    """Frequent strings; in some blocks new ones, rare (exceptions) or
    frequent (entries): either grows the column's shared dictionary."""
    values = rng.choice(WORDS, k)
    novel = rng.random(k) < float(rng.choice([0.0, 0.02, 0.5]))
    values[novel] = [f"b{block}-{i % 5}"
                     for i in rng.integers(0, 99, int(novel.sum())).tolist()]
    return values


def _floats(rng, k, block, ctype):
    return np.round(rng.uniform(-1e4, 1e4, k), 2)


#: name -> (column type, values of a block, the schemes blocks may take)
CASES = {
    "PFOR": (INT64, _ints, ["PFOR"]),
    "PFOR-int32": (DATE, _ints, ["PFOR"]),
    "PFOR-DELTA": (INT64, _ascending, ["PFOR-DELTA"]),
    "PDICT-int": (INT64, _few_ints, ["PDICT"]),
    "PDICT-string": (STRING, _strings, ["PDICT"]),
    "LZ-string": (STRING, _strings, ["LZ"]),
    "LZ-float": (FLOAT64, _floats, ["LZ"]),
    "RAW-int": (INT64, _ints, ["RAW"]),
    "RAW-string": (STRING, _strings, ["RAW"]),
    "mixed-string": (STRING, _strings, ["PDICT", "LZ", "RAW"]),
    "mixed-int": (INT64, _few_ints, ["PFOR", "PDICT", "PFOR-DELTA", "RAW"]),
}


def _store(case, sizes, seed):
    """A one-column partition of blocks of ``sizes`` rows, each encoded
    with a scheme of the case (drawn per block); returns the store and
    the rows written."""
    ctype, make, schemes = CASES[case]
    rng = np.random.default_rng(seed)
    config = Config().scaled_for_tests()
    hdfs = HdfsCluster(["n1", "n2"], config, VectorHPlacementPolicy())
    store = PartitionStore(hdfs, "/db/t/part-0000",
                           TableSchema("t", [Column("v", ctype)]), config)
    written = []
    with pytest.MonkeyPatch.context() as patch:
        for block, k in enumerate(sizes):
            values = make(rng, k, block, ctype)
            scheme = SCHEMES[str(rng.choice(schemes))]
            patch.setattr(colstore, "compress_best",
                          lambda v, t, s=scheme: s.compress(v, t))
            store._write_block("v", ctype, values, store.n_stable, None,
                               partial=False)
            store.n_stable += k
            written.extend(values.tolist())
    return store, written


def _per_block(store, lo, hi, stored):
    """The rows ``[lo, hi)`` the old way: every block decoded alone."""
    parts = []
    for ref in store.blocks["v"]:
        if ref.row_start < hi and ref.row_end > lo:
            values, = store._read_run([ref], stored=stored)
            parts.append(values[max(lo, ref.row_start) - ref.row_start:
                                hi - ref.row_start])
    return parts[0] if len(parts) == 1 else concat_stored(parts)


def _shared(store, name="v"):
    shared = store.dictionaries.encode(name, [])
    return shared and shared[0]


def _assert_same(got, expected):
    assert type(got) is type(expected)
    assert np.asarray(got).tolist() == np.asarray(expected).tolist()
    if isinstance(got, DictColumn):
        assert got.codes.dtype == np.int32
        entries = got.dictionary.tolist()
        assert entries == sorted(set(entries))
    elif isinstance(got, np.ndarray):
        assert got.dtype == expected.dtype


@st.composite
def layouts(draw, case):
    low = 2 if "PFOR-DELTA" in CASES[case][2] else 1
    sizes = draw(st.lists(st.integers(low, 700), min_size=1, max_size=7))
    n = sum(sizes)
    cuts = sorted(draw(st.sets(st.integers(0, n), min_size=2, max_size=9)))
    pairs = list(zip(cuts, cuts[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    reads = [p for p, k in zip(pairs, keep) if k] or pairs[:1]
    return sizes, reads, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reads_of_runs_match_per_block_decode(case, data):
    sizes, reads, seed, stored = data.draw(layouts(case))
    store, written = _store(case, sizes, seed)
    starts = [ref.row_start for ref in store.blocks["v"]]
    ends = [ref.row_end for ref in store.blocks["v"]]
    cursor = BlockCursor(store, "v", None, None, stored)
    got, in_kept, kept = [], [], -1
    for lo, hi in reads:
        in_kept.append(bisect_right(starts, lo) - 1 == kept)
        values = cursor.read(lo, hi)
        got.append((values, _shared(store)))
        last = bisect_left(starts, hi) - 1
        kept = last if hi < ends[last] else -1
        if kept < 0:
            assert cursor.kept_bytes == 0
        else:  # charged as the block alone
            alone, = store._read_run([store.blocks["v"][kept]],
                                     stored=stored)
            assert cursor.kept_bytes == batch_bytes(Batch({"": alone},
                                                          len(alone)))
    for (lo, hi), (values, shared), starts_kept in zip(reads, got, in_kept):
        _assert_same(values, _per_block(store, lo, hi, stored))
        assert np.asarray(values).tolist() == written[lo:hi]
        if isinstance(values, DictColumn) and not starts_kept:
            # one run: over the dictionary the column shared right then
            assert values.dictionary is shared


def _pdict_strings(sizes, novel_in=()):
    """A string column of PDICT blocks; the blocks in ``novel_in`` hold
    strings no block before them held."""
    config = Config().scaled_for_tests()
    hdfs = HdfsCluster(["n1"], config, VectorHPlacementPolicy())
    store = PartitionStore(hdfs, "/db/t/part-0000",
                           TableSchema("t", [Column("s", STRING)]), config)
    for block, k in enumerate(sizes):
        values = WORDS[np.arange(k) % 4]
        if block in novel_in:
            values[::7] = f"new-{block}"
        store._write_block("s", STRING, values, store.n_stable, None,
                           partial=False)
        assert store.blocks["s"][-1].scheme == "PDICT"
        store.n_stable += k
    return store


def test_a_read_decodes_its_blocks_with_one_call(monkeypatch):
    """Four blocks, the third with strings the shared dictionary lacks:
    one decode call, every row over the final dictionary object."""
    store = _pdict_strings([1000, 1000, 1000, 1000], novel_in=(2,))
    calls = []
    decompress = colstore.decompress

    def spy(blocks, ctype):
        calls.append(len(blocks))
        return decompress(blocks, ctype)

    monkeypatch.setattr(colstore, "decompress", spy)
    out = store.read_column("s")
    assert calls == [4]
    assert out.dictionary is _shared(store, "s")
    assert "new-2" in out.dictionary.tolist()
    assert out.tolist().count("new-2") == len(range(0, 1000, 7))


def test_the_kept_block_pins_only_itself():
    """A piece ending inside the last block of a run keeps that block in
    arrays of its own, charged as that block; the next piece starts in
    it."""
    store = _pdict_strings([1000, 1000, 1000])
    cursor = BlockCursor(store, "s", None, None)
    first = cursor.read(0, 2500)
    kept = cursor._values
    assert len(kept) == 1000
    assert not np.shares_memory(kept.codes, first.codes)
    alone, = store._read_run([store.blocks["s"][2]])
    assert cursor.kept_bytes == batch_bytes(Batch({"": alone}, 1000))
    second = cursor.read(2500, 3000)
    assert second.tolist() == alone.tolist()[500:]
    assert cursor.kept_bytes == 0


def test_a_ragged_block_ends_a_shared_unpack():
    """Blocks of one width whose codes end inside a byte cannot share a
    stream with the block after them; the run decodes them right all
    the same."""
    from repro.compression.bitpack import pack_bits, unpack_streams

    rng = np.random.default_rng(3)
    sizes, widths = [8, 3, 16, 5, 4], [3, 3, 3, 5, 5]
    codes = [rng.integers(0, 1 << w, k) for k, w in zip(sizes, widths)]
    streams = [(pack_bits(c, w), w, k)
               for c, w, k in zip(codes, widths, sizes)]
    for dtype in (np.int64, np.int32, np.intp):
        out = unpack_streams(streams, dtype)
        assert out.dtype == dtype
        assert out.tolist() == np.concatenate(codes).tolist()


def test_image_reads_of_a_run_are_images():
    """``stored`` reads of LZ and RAW string blocks stay images, however
    many blocks a range spans."""
    store, written = _store("mixed-string", [300, 200, 250, 100], 5)
    out = store.read_column("v", [(10, 790)], stored=True)
    schemes = {ref.scheme for ref in store.blocks["v"]}
    if schemes & {"LZ", "RAW"}:
        assert isinstance(out, StringImage)
    assert np.asarray(out).tolist() == written[10:790]


def test_tpch_answers_through_multi_block_runs(monkeypatch):
    """The frozen answers' data (SF 0.005) in 2 partitions instead of 6:
    a piece of lineitem spans several blocks of its finer columns, and
    Q1, Q3, Q6, Q12 and Q14 answer the same through those runs."""
    from repro.cluster import VectorHCluster
    from repro.tpch import QUERIES, generate_tpch, tpch_schemas
    from repro.tpch.schema import LOAD_ORDER
    from tests.conftest import assert_batches_match
    from tests.test_tpch import ANSWERS

    cluster = VectorHCluster(n_nodes=4, config=Config().scaled_for_tests())
    data = generate_tpch(scale_factor=0.005, seed=42)
    schemas = tpch_schemas(n_partitions=2)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, data[name])
    runs = {}
    decompress = colstore.decompress

    def spy(blocks, ctype):
        scheme = blocks[0].scheme
        runs[scheme] = max(runs.get(scheme, 0), len(blocks))
        return decompress(blocks, ctype)

    monkeypatch.setattr(colstore, "decompress", spy)
    for number in (1, 3, 6, 12, 14):
        batch = QUERIES[number](lambda plan: cluster.query(plan).batch)
        frozen = ANSWERS[f"q{number}"]
        assert batch.column_names == frozen["columns"]
        expected = Batch({c: np.array([row[i] for row in frozen["rows"]],
                                      dtype=object)
                          for i, c in enumerate(frozen["columns"])},
                         len(frozen["rows"]))
        assert_batches_match(batch, expected)
    for scheme in ("PFOR", "PFOR-DELTA", "PDICT"):
        assert runs.get(scheme, 0) >= 2, runs
