"""Unit + property tests for PFOR, PFOR-DELTA, PDICT, LZ and bit-packing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CompressionError
from repro.common.types import DATE, FLOAT64, INT32, INT64, STRING
from repro.compression import (
    PDictScheme,
    PForDeltaScheme,
    PForScheme,
    compress_best,
    decompress,
    pack_bits,
    unpack_bits,
)
from repro.compression.base import SCHEMES, build_patch_chain
from repro.compression.bitpack import packed_size, width_for
from repro.compression.general import GeneralPurposeScheme, RawScheme


# ----------------------------------------------------------------- bitpack

class TestBitPack:
    def test_roundtrip_simple(self):
        values = np.array([0, 1, 5, 7, 3], dtype=np.int64)
        data = pack_bits(values, 3)
        assert np.array_equal(unpack_bits(data, 3, 5), values)

    def test_width_one(self):
        values = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.int64)
        data = pack_bits(values, 1)
        assert len(data) == 2  # 9 bits -> 2 bytes
        assert np.array_equal(unpack_bits(data, 1, 9), values)

    def test_width_32(self):
        values = np.array([2**32 - 1, 0, 123456789], dtype=np.int64)
        data = pack_bits(values, 32)
        assert np.array_equal(unpack_bits(data, 32, 3), values)

    def test_value_too_large_rejected(self):
        with pytest.raises(CompressionError):
            pack_bits(np.array([8]), 3)

    def test_negative_rejected(self):
        with pytest.raises(CompressionError):
            width_for(-1)

    def test_empty(self):
        assert pack_bits(np.array([], dtype=np.int64), 4) == b""
        assert unpack_bits(b"", 4, 0).size == 0

    def test_packed_size(self):
        assert packed_size(8, 1) == 1
        assert packed_size(9, 1) == 2
        assert packed_size(3, 32) == 12

    def test_width_for(self):
        assert width_for(0) == 1
        assert width_for(1) == 1
        assert width_for(7) == 3
        assert width_for(8) == 4

    @given(st.lists(st.integers(0, 2**20 - 1), max_size=300),
           st.integers(20, 32))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values, width):
        arr = np.asarray(values, dtype=np.int64)
        data = pack_bits(arr, width)
        assert np.array_equal(unpack_bits(data, width, len(arr)), arr)


# --------------------------------------------------------------- patch chain

class TestPatchChain:
    def test_no_exceptions(self):
        assert build_patch_chain(np.zeros(10, bool), 4).tolist() == []

    def test_simple_chain(self):
        mask = np.zeros(10, bool)
        mask[[2, 5, 9]] = True
        assert build_patch_chain(mask, 4).tolist() == [2, 5, 9]

    def test_compulsory_exception_inserted(self):
        mask = np.zeros(20, bool)
        mask[[0, 18]] = True
        chain = build_patch_chain(mask, 3)  # max gap 7
        assert chain[0] == 0 and chain[-1] == 18
        gaps = np.diff(chain)
        assert (gaps <= 7).all()


# ------------------------------------------------------------------- schemes

class TestPFor:
    def test_roundtrip_uniform(self):
        values = np.arange(1000, 2000, dtype=np.int64)
        block = PForScheme().compress(values, INT64)
        assert np.array_equal(decompress(block, INT64), values)

    def test_exceptions_patched(self):
        values = np.ones(500, dtype=np.int64)
        values[::50] = 10**15  # far outliers become exceptions
        block = PForScheme().compress(values, INT64)
        assert np.array_equal(decompress(block, INT64), values)
        # outliers must not blow up the code width
        assert block.size_bytes < values.nbytes

    def test_negative_values(self):
        values = np.array([-100, -50, 0, 50, 100], dtype=np.int64)
        block = PForScheme().compress(values, INT64)
        assert np.array_equal(decompress(block, INT64), values)

    def test_single_value(self):
        values = np.array([42], dtype=np.int64)
        block = PForScheme().compress(values, INT64)
        assert np.array_equal(decompress(block, INT64), values)

    def test_empty(self):
        values = np.array([], dtype=np.int64)
        block = PForScheme().compress(values, INT64)
        assert decompress(block, INT64).size == 0

    def test_compresses_narrow_domain(self):
        values = np.random.default_rng(0).integers(0, 16, 4096)
        block = PForScheme().compress(values.astype(np.int64), INT64)
        assert block.size_bytes < values.nbytes // 8

    @given(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        block = PForScheme().compress(arr, INT64)
        assert np.array_equal(decompress(block, INT64), arr)


class TestPForDelta:
    def test_sorted_compresses_well(self):
        values = np.sort(np.random.default_rng(1).integers(0, 10**9, 4096))
        block = PForDeltaScheme().compress(values.astype(np.int64), INT64)
        assert np.array_equal(decompress(block, INT64), values)
        pfor = PForScheme().compress(values.astype(np.int64), INT64)
        assert block.size_bytes < pfor.size_bytes

    def test_requires_two_values(self):
        assert not PForDeltaScheme().can_compress(np.array([1]), INT64)

    def test_descending(self):
        values = np.arange(100, 0, -1, dtype=np.int64)
        block = PForDeltaScheme().compress(values, INT64)
        assert np.array_equal(decompress(block, INT64), values)

    @given(st.lists(st.integers(-2**40, 2**40), min_size=2, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        block = PForDeltaScheme().compress(arr, INT64)
        assert np.array_equal(decompress(block, INT64), arr)


class TestPDict:
    def test_roundtrip_strings(self):
        values = np.array(["a", "b", "a", "c", "a"] * 100, dtype=object)
        block = PDictScheme().compress(values, STRING)
        assert list(decompress(block, STRING)) == list(values)

    def test_skewed_with_rare_exceptions(self):
        values = np.array(["common"] * 1000 + [f"rare{i}" for i in range(5)],
                          dtype=object)
        block = PDictScheme().compress(values, STRING)
        assert list(decompress(block, STRING)) == list(values)
        assert block.size_bytes < 2200  # rare values stored once as exceptions

    def test_roundtrip_ints(self):
        values = np.array([7, 7, 8, 7, 9] * 50, dtype=np.int64)
        block = PDictScheme().compress(values, INT64)
        assert np.array_equal(decompress(block, INT64), values)

    def test_unicode(self):
        values = np.array(["héllo", "wörld", "héllo"], dtype=object)
        block = PDictScheme().compress(values, STRING)
        assert list(decompress(block, STRING)) == list(values)

    @given(st.lists(st.sampled_from(["x", "y", "z", "rare-1", "rare-2"]),
                    min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        block = PDictScheme().compress(arr, STRING)
        assert list(decompress(block, STRING)) == values


class TestGeneralAndRaw:
    def test_lz_roundtrip_strings(self):
        values = np.array(["the same text"] * 200, dtype=object)
        block = GeneralPurposeScheme().compress(values, STRING)
        assert list(decompress(block, STRING)) == list(values)

    def test_lz_roundtrip_floats(self):
        values = np.random.default_rng(0).random(512)
        block = GeneralPurposeScheme().compress(values, FLOAT64)
        assert np.allclose(decompress(block, FLOAT64), values)

    def test_raw_roundtrip(self):
        values = np.array([1.5, 2.5], dtype=np.float64)
        block = RawScheme().compress(values, FLOAT64)
        assert np.array_equal(decompress(block, FLOAT64), values)


class TestChooser:
    def test_sorted_dates_pick_delta(self):
        values = np.sort(
            np.random.default_rng(2).integers(8000, 9000, 2000)
        ).astype(np.int32)
        block = compress_best(values, DATE)
        assert block.scheme == "PFOR-DELTA"
        assert np.array_equal(decompress(block, DATE), values)

    def test_low_cardinality_strings_pick_dict(self):
        values = np.array(["MAIL", "SHIP", "RAIL"] * 500, dtype=object)
        block = compress_best(values, STRING)
        assert block.scheme == "PDICT"

    def test_every_registered_scheme_has_unique_name(self):
        assert len(SCHEMES) == len({s.name for s in SCHEMES.values()})

    def test_int32_roundtrip_via_best(self):
        values = np.array([5, -3, 1 << 30, 0], dtype=np.int32)
        block = compress_best(values, INT32)
        out = decompress(block, INT32)
        assert out.dtype == np.int32
        assert np.array_equal(out, values)


class TestFloatBlocks:
    """PDICT stores numbers as int64, so it must never take a float."""

    def test_repeating_floats_stay_out_of_the_dictionary(self):
        values = np.array([0.25, 0.5, 0.25, 0.5, 0.75] * 100)
        assert not PDictScheme().can_compress(values, FLOAT64)
        with pytest.raises(CompressionError):
            PDictScheme().compress(values, FLOAT64)
        block = compress_best(values, FLOAT64)
        assert block.scheme in ("RAW", "LZ")
        assert np.array_equal(decompress(block, FLOAT64), values)

    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                           -0.0, 0.0, 0.25, 0.5]),
        max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_compress_best_round_trips_every_bit(self, values):
        arr = np.asarray(values, dtype=np.float64)
        out = decompress(compress_best(arr, FLOAT64), FLOAT64)
        # bit for bit: NaN payloads and the sign of -0.0 included
        assert out.dtype == np.float64
        assert out.tobytes() == arr.tobytes()
