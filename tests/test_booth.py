"""Tests for modified-Booth / NAF term counting — the heart of PRA/Diffy."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.booth import (
    DEFAULT_ENCODING,
    R4_DIGITS,
    WORD_BITS,
    booth_terms,
    mean_terms,
    term_count_lut,
)
from tests.oracles import naf_digits, r4_booth_digits

int16s = st.integers(min_value=-(2**15), max_value=2**15 - 1)


class TestNafDigits:
    def test_examples(self):
        assert sorted(naf_digits(7)) == [-1, 8]
        assert naf_digits(0) == []
        assert naf_digits(1) == [1]
        assert naf_digits(-1) == [-1]

    @given(int16s)
    def test_sum_reconstructs(self, v):
        assert sum(naf_digits(v)) == v

    @given(int16s)
    def test_terms_are_signed_powers_of_two(self, v):
        for t in naf_digits(v):
            assert t != 0
            assert (abs(t) & (abs(t) - 1)) == 0

    @given(int16s)
    def test_nonadjacent_property(self, v):
        exps = sorted(int(np.log2(abs(t))) for t in naf_digits(v))
        assert all(b - a >= 2 for a, b in zip(exps, exps[1:]))

    @given(int16s)
    def test_minimality_vs_binary(self, v):
        # NAF never uses more terms than the plain binary representation.
        assert len(naf_digits(v)) <= bin(abs(v)).count("1") + 1


class TestR4BoothDigits:
    @given(int16s)
    def test_sum_reconstructs(self, v):
        assert sum(r4_booth_digits(v)) == v

    @given(int16s)
    def test_terms_are_signed_powers_of_two(self, v):
        for t in r4_booth_digits(v):
            assert t != 0
            assert (abs(t) & (abs(t) - 1)) == 0

    @given(int16s)
    def test_at_most_8_digits(self, v):
        assert len(r4_booth_digits(v)) <= R4_DIGITS

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            r4_booth_digits(1 << 16)


class TestTermCountLut:
    def test_lut_sizes(self):
        assert term_count_lut("booth").shape == (65536,)
        assert term_count_lut("naf").shape == (65536,)

    def test_lut_readonly(self):
        with pytest.raises(ValueError):
            term_count_lut("booth")[0] = 1

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            term_count_lut("magic")

    @pytest.mark.parametrize(
        "encoding, digits",
        [("booth", r4_booth_digits), ("naf", naf_digits)],
        ids=["booth", "naf"],
    )
    def test_every_entry_matches_the_digit_spec(self, encoding, digits):
        words = np.arange(-(1 << 15), 1 << 15, dtype=np.int16)
        expected = [len(digits(int(v))) for v in words]
        assert booth_terms(words, encoding).tolist() == expected

    @given(int16s)
    def test_booth_lut_matches_scalar(self, v):
        assert booth_terms(np.array([v]), "booth")[0] == len(r4_booth_digits(v))

    @given(int16s)
    def test_naf_lut_matches_scalar(self, v):
        assert booth_terms(np.array([v]), "naf")[0] == len(naf_digits(v))


class TestBoothTerms:
    def test_zero_costs_nothing(self):
        assert booth_terms(np.array([0]))[0] == 0

    def test_even_powers_of_two_cost_one(self):
        # 4^k values are single radix-4 digits.
        vals = np.array([1, 4, 16, 1024, -2048, 2])
        assert np.array_equal(booth_terms(vals), [1, 1, 1, 1, 1, 2])
        # Under NAF every power of two is a single term.
        assert np.all(booth_terms(vals, "naf") == 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside signed"):
            booth_terms(np.array([1 << 16]))

    def test_shape_preserved(self):
        out = booth_terms(np.zeros((2, 3, 4), dtype=np.int64))
        assert out.shape == (2, 3, 4)

    def test_default_encoding_is_booth(self):
        vals = np.arange(-500, 500)
        assert np.array_equal(booth_terms(vals), booth_terms(vals, "booth"))
        assert DEFAULT_ENCODING == "booth"

    def test_uniform_mean_is_six(self):
        # Radix-4 Booth on uniform 16-bit words: P(zero digit) = 1/4.
        vals = np.arange(-(2**15), 2**15)
        assert abs(booth_terms(vals).mean() - 6.0) < 1e-6

    def test_small_values_cost_fewer_terms(self):
        rng = np.random.default_rng(0)
        small = booth_terms(rng.integers(-64, 64, 4000)).mean()
        large = booth_terms(rng.integers(-(2**14), 2**14, 4000)).mean()
        assert small < large

    def test_mean_terms_helper(self):
        assert mean_terms(np.array([0, 1, 2])) == pytest.approx(1.0)  # 0,1,2 cost 0,1,2 digits
        with pytest.raises(ValueError):
            mean_terms(np.array([]))

    @given(int16s)
    def test_naf_never_more_terms_than_booth(self, v):
        naf = booth_terms(np.array([v]), "naf")[0]
        r4 = booth_terms(np.array([v]), "booth")[0]
        assert naf <= r4

    def test_word_bits_constant(self):
        assert WORD_BITS == 16
