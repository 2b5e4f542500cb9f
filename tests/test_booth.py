"""Tests for modified-Booth term counting — the heart of PRA/Diffy."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.booth import R4_DIGITS, WORD_BITS, booth_terms, term_count_lut
from tests.oracles import r4_booth_digits

int16s = st.integers(min_value=-(2**15), max_value=2**15 - 1)


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
    def test_lut_size(self):
        assert term_count_lut().shape == (65536,)

    def test_lut_readonly(self):
        with pytest.raises(ValueError):
            term_count_lut()[0] = 1

    def test_every_entry_matches_the_digit_spec(self):
        words = np.arange(-(1 << 15), 1 << 15, dtype=np.int16)
        expected = [len(r4_booth_digits(int(v))) for v in words]
        assert booth_terms(words).tolist() == expected

    @given(int16s)
    def test_booth_lut_matches_scalar(self, v):
        assert booth_terms(np.array([v]))[0] == len(r4_booth_digits(v))


class TestBoothTerms:
    def test_zero_costs_nothing(self):
        assert booth_terms(np.array([0]))[0] == 0

    def test_even_powers_of_two_cost_one(self):
        # 4^k values are single radix-4 digits.
        vals = np.array([1, 4, 16, 1024, -2048, 2])
        assert np.array_equal(booth_terms(vals), [1, 1, 1, 1, 1, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside signed"):
            booth_terms(np.array([1 << 16]))

    def test_shape_preserved(self):
        out = booth_terms(np.zeros((2, 3, 4), dtype=np.int64))
        assert out.shape == (2, 3, 4)

    def test_uniform_mean_is_six(self):
        # Radix-4 Booth on uniform 16-bit words: P(zero digit) = 1/4.
        vals = np.arange(-(2**15), 2**15)
        assert abs(booth_terms(vals).mean() - 6.0) < 1e-6

    def test_small_values_cost_fewer_terms(self):
        rng = np.random.default_rng(0)
        small = booth_terms(rng.integers(-64, 64, 4000)).mean()
        large = booth_terms(rng.integers(-(2**14), 2**14, 4000)).mean()
        assert small < large

    def test_word_bits_constant(self):
        assert WORD_BITS == 16
