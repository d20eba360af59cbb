"""Byte identity of the encoders with the ones they replaced.

``tests/reference_encoders.py`` holds the parent's per-value encoders
unchanged; the format is frozen, so every block -- per scheme and through
``compress_best`` -- must come out with the same scheme, count and bytes,
and a scheme that raised ``CompressionError`` there must decline here.
"""

import numpy as np
import pytest

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.common.errors import CompressionError
from repro.common.types import BOOL, DATE, DECIMAL, INT32, INT64, STRING
from repro.compression import (
    SCHEMES, compress_best, decompress, pack_bits, unpack_bits,
)
from repro.compression.base import build_patch_chain
from repro.storage import colstore
from repro.tpch import generate_tpch, tpch_schemas
from repro.tpch.schema import LOAD_ORDER
from tests import reference_encoders as reference

BLOCKS_PER_TYPE = 500
I64 = np.iinfo(np.int64)


# ---------------------------------------------------------------- comparing

def _outcome(compress, values, ctype):
    try:
        block = compress(values, ctype)
    except CompressionError:
        return None
    return block.scheme, block.count, bytes(block.data)


def mismatches(values, ctype):
    """Names under which the new encoders disagree with the reference on
    this block: each scheme on its own, then ``compress_best``."""
    values = np.asarray(values, dtype=ctype.dtype)
    wrong = []
    for name, (can_compress, compress) in reference.REFERENCE_SCHEMES.items():
        scheme = SCHEMES[name]
        if can_compress(values, ctype) != scheme.can_compress(values, ctype):
            wrong.append(f"{name}.can_compress")
        elif can_compress(values, ctype) and (
                _outcome(compress, values, ctype)
                != _outcome(scheme.compress, values, ctype)):
            wrong.append(name)
    best = _outcome(compress_best, values, ctype)
    if best != _outcome(reference.compress_best, values, ctype):
        wrong.append("compress_best")
    elif not _same_values(decompress(compress_best(values, ctype), ctype),
                          values, ctype):
        wrong.append("round trip")
    return wrong


def _same_values(out, values, ctype):
    # a string column stores str(value), whatever object it was given
    expected = map(str, values.tolist()) if ctype.is_string else values
    return len(out) == len(values) and out.tolist() == list(expected)


# ------------------------------------------------------------ seeded blocks

def _integers(rng, dtype):
    """One block of an integer-like column, its shape drawn at random:
    narrow domains, sorted runs, outliers at every density, low
    cardinality, steps that make PFOR-DELTA win."""
    n = int(rng.choice([1, 2, 3, 31, 32, 33, 100, 257, 1000, 2048]))
    info = np.iinfo(dtype)
    kind = rng.integers(0, 7)
    if kind == 0:
        values = rng.integers(0, 1 << int(rng.integers(1, 31)), n)
    elif kind == 1:
        values = np.sort(rng.integers(0, 1 << int(rng.integers(4, 30)), n))
    elif kind == 2:    # outliers: exceptions, sparse to dense
        values = rng.integers(0, 1 << int(rng.integers(1, 12)), n)
        hit = rng.random(n) < rng.choice([0.002, 0.01, 0.1, 0.5, 0.9])
        values[hit] = rng.integers(info.max // 4, info.max // 2, hit.sum())
    elif kind == 3:    # few distinct values, skewed: PDICT with exceptions
        pool = rng.integers(info.min // 2, info.max // 2,
                            int(rng.integers(1, 40)))
        weights = rng.random(len(pool)) ** 4
        values = rng.choice(pool, n, p=weights / weights.sum())
    elif kind == 4:    # constant steps with rare jumps
        steps = np.full(n, int(rng.integers(0, 9)))
        steps[rng.random(n) < 0.02] = int(rng.integers(1000, 100000))
        values = np.cumsum(steps) + int(rng.integers(-1000, 1000))
    elif kind == 5:    # the whole domain of the type
        values = rng.integers(info.min, info.max, n, endpoint=True)
    else:              # ties in count: most_common() order by appearance
        values = rng.permutation(np.repeat(
            rng.integers(-50, 50, int(rng.integers(1, 20))),
            int(rng.integers(1, 6))))
    return values.astype(dtype)


_WORDS = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "",
          "naïve", "Zürich", "日本語", "🙂", "a", "ab", "DELIVER IN PERSON"]


def _strings(rng):
    n = int(rng.choice([1, 2, 17, 100, 600]))
    kind = rng.integers(0, 4)
    if kind == 0:      # low cardinality, ASCII only
        pool = _WORDS[:int(rng.integers(1, 8))]
    elif kind == 1:    # empty and non-ASCII strings among them
        pool = _WORDS
    elif kind == 2:    # near-unique comments: LZ or RAW territory
        pool = [" ".join(rng.choice(_WORDS[:7], int(rng.integers(1, 6))))
                + str(i) for i in range(n)]
    else:              # skewed: a few hot values and a long tail
        pool = _WORDS + [f"Customer#{i:09d}" for i in range(300)]
        weights = 1.0 / np.arange(1, len(pool) + 1) ** 2
        return rng.choice(np.array(pool, dtype=object), n,
                          p=weights / weights.sum())
    return rng.choice(np.array(pool, dtype=object), n)


@pytest.mark.parametrize("ctype", [INT32, INT64, DATE, DECIMAL, STRING],
                         ids=lambda t: t.name)
def test_seeded_blocks_are_byte_identical(ctype):
    rng = np.random.default_rng([22, sum(map(ord, ctype.name))])
    wrong = []
    for i in range(BLOCKS_PER_TYPE):
        values = (_strings(rng) if ctype.is_string
                  else _integers(rng, ctype.dtype))
        wrong += [(i, name) for name in mismatches(values, ctype)]
    assert wrong == [], f"{len(wrong)} mismatching blocks: {wrong[:10]}"


# --------------------------------------------------------------- edge cases

def _compulsory_every_gap():
    # 0/1 with two outliers far apart: width 1, so max_gap is 1 and every
    # slot between the outliers becomes a compulsory exception
    values = np.zeros(400, dtype=np.int64)
    values[::2] = 1
    values[[3, 390]] = 1 << 40
    return values


def _dictionary_fills(width):
    # exactly 1 << width distinct values, each as frequent as the others
    return np.tile(np.arange(1 << width, dtype=np.int64) * 1000003, 3)


EDGE_CASES = {
    "empty": (np.zeros(0, np.int64), INT64),
    "empty strings column": (np.zeros(0, object), STRING),
    "one value": (np.array([42]), INT64),
    "one negative value": (np.array([-42]), INT32),
    "one string": (np.array(["x"], dtype=object), STRING),
    "two values": (np.array([7, 7]), INT64),
    "all equal": (np.full(1000, 12345), INT64),
    "all equal strings": (np.array(["same"] * 300, dtype=object), STRING),
    "all exceptions": (
        np.arange(600, dtype=np.int64) * (1 << 33) + 1, INT64),
    "half exceptions": (
        np.where(np.arange(500) % 2 == 0, 3, 1 << 45), INT64),
    "width 1, compulsory exceptions every gap": (
        _compulsory_every_gap(), INT64),
    "compulsory exceptions, width 2": (
        np.where(np.isin(np.arange(900), [0, 450, 899]), 1 << 50,
                 np.arange(900) % 3), INT64),
    "width 8": (np.arange(256, dtype=np.int64).repeat(3), INT64),
    "width 16": (np.arange(0, 1 << 16, 7, dtype=np.int64), INT64),
    "width 32": (np.arange(0, 1 << 32, 1 << 20, dtype=np.int64) + 5, INT64),
    "int32 extremes": (np.array([I64.min >> 32, 0, (I64.max >> 32)] * 50,
                                dtype=np.int64).astype(np.int32), INT32),
    "int64 extremes overflow the frame": (
        np.array([I64.min, 0, I64.max] * 40), INT64),
    "int64 extremes, sorted": (
        np.sort(np.array([I64.min, -1, 0, 1, I64.max] * 30)), INT64),
    "wrapped delta under a compulsory exception": (
        np.array([I64.min + 100, 5, I64.min + 100] + [I64.min] * 997),
        INT64),
    "wrapped delta in a code slot": (
        np.array([I64.min + 100, I64.min, 5] + [I64.min] * 997), INT64),
    "non-ASCII strings": (
        np.array(["naïve", "日本語", "🙂", "naïve", "Zürich"] * 60,
                 dtype=object), STRING),
    "empty strings": (np.array(["", "a", "", "", "bc"] * 50, dtype=object),
                      STRING),
    "only empty strings": (np.array([""] * 100, dtype=object), STRING),
    "non-str objects": (np.array([1, "1", None, 2.5, 1] * 20, dtype=object),
                        STRING),
    "dictionary fills 1 << 1": (_dictionary_fills(1), INT64),
    "dictionary fills 1 << 3": (_dictionary_fills(3), INT64),
    "dictionary fills 1 << 8": (_dictionary_fills(8), INT64),
    "dictionary one over 1 << 3": (
        np.tile(np.arange(9, dtype=np.int64) * 1000003, 3), INT64),
    "string dictionary fills 1 << 2": (
        np.array(["n", "e", "s", "w"] * 80, dtype=object), STRING),
    "unique strings": (
        np.array([f"comment {i} {'x' * (i % 13)}" for i in range(500)],
                 dtype=object), STRING),
    "bools": (np.arange(700) % 3 == 0, BOOL),
    "dates": (np.sort(np.random.default_rng(3).integers(8000, 11000, 3000)),
              DATE),
    "decimals": (np.random.default_rng(4).integers(90000, 10500000, 2048),
                 DECIMAL),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_case_is_byte_identical(case):
    values, ctype = EDGE_CASES[case]
    assert mismatches(values, ctype) == []


BITPACK_COUNTS = (0, 1, 2, 31, 32, 33, 63, 64, 65, 1000, 2047, 2049, 4096,
                  4100, 8192)


def test_pack_bits_matches_the_bit_matrix():
    rng = np.random.default_rng(15)
    for count in BITPACK_COUNTS:
        for width in range(1, 33):
            codes = rng.integers(0, 1 << width, count)
            if count:
                codes[rng.integers(0, count)] = (1 << width) - 1
            assert pack_bits(codes, width) == reference.pack_bits(
                codes, width), (count, width)
    for values, width in [(np.array([8]), 3), (np.array([-1]), 5),
                          (np.array([1]), 0), (np.array([1]), 33)]:
        for pack in (pack_bits, reference.pack_bits):
            with pytest.raises(CompressionError):
                pack(values, width)


def test_unpack_bits_matches_the_bit_matrix():
    """Every width and dtype, counts around the 32-code group and the
    kernel step, payloads at every byte offset of a buffer; a 32-bit code
    of 2**31 or more wraps into int32 as a cast does."""
    rng = np.random.default_rng(17)
    for count in BITPACK_COUNTS:
        for width in range(1, 33):
            codes = rng.integers(0, 1 << width, count)
            if count:
                codes[rng.integers(0, count)] = (1 << width) - 1
            packed = reference.pack_bits(codes, width)
            expected = reference.unpack_bits(packed, width, count)
            assert np.array_equal(expected, codes), (count, width)
            for offset in range(1, 8):
                data = memoryview(b"\xa5" * offset + packed + b"\xff" * 9)
                for dtype in (np.int64, np.intp, np.int32):
                    out = unpack_bits(data[offset:], width, count, dtype)
                    assert out.dtype == dtype and out.flags.writeable
                    assert np.array_equal(out, expected.astype(dtype)), (
                        count, width, offset, dtype)
    top = reference.pack_bits(np.array([2 ** 32 - 1, 2 ** 31, 5]), 32)
    for unpack in (unpack_bits, reference.unpack_bits):
        assert unpack(top, 32, 3, np.int32).tolist() == [-1, -2 ** 31, 5]


def test_unpack_bits_errors_match_the_bit_matrix():
    packed = reference.pack_bits(np.arange(40) % 8, 3)
    for unpack in (unpack_bits, reference.unpack_bits):
        with pytest.raises(CompressionError, match="too short"):
            unpack(packed[:-1], 3, 40)
        for width in (0, 33):
            with pytest.raises(CompressionError, match="unsupported"):
                unpack(b"\x00" * 256, width, 40)


def test_patch_chain_matches_the_loop():
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(1, 600))
        mask = rng.random(n) < rng.choice([0.0, 0.005, 0.05, 0.5, 1.0])
        width = int(rng.integers(1, 9))
        assert (build_patch_chain(mask, width).tolist()
                == reference.build_patch_chain(mask, width))


# -------------------------------------------------------- a whole bulk load

def _loaded_files(monkeypatch, encoder):
    monkeypatch.setattr(colstore, "compress_best", encoder)
    cluster = VectorHCluster(n_nodes=3, config=Config().scaled_for_tests())
    data = generate_tpch(scale_factor=0.005, seed=7)
    schemas = tpch_schemas(n_partitions=3)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, data[name])
    hdfs = cluster.hdfs
    return {path: hdfs.read(path, 0, hdfs.file_size(path))
            for path in hdfs.list_files("/")}


def test_tpch_load_writes_identical_files(monkeypatch):
    ours = _loaded_files(monkeypatch, compress_best)
    theirs = _loaded_files(monkeypatch, reference.compress_best)
    assert ours.keys() == theirs.keys() and len(ours) > 20
    assert [p for p in ours if ours[p] != theirs[p]] == []
