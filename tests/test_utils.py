"""Tests for repro.utils: rng derivation, bit helpers, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import (
    bits_for_magnitude,
    bits_for_signed,
    quantize_to_width,
    signed_range,
)
from repro.utils.rng import derive_seed, rng_for
from repro.utils.validation import check_axis, check_in, check_nonnegative, check_positive


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_keys_change_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_nonnegative_63bit(self):
        for i in range(50):
            s = derive_seed(i, "x")
            assert 0 <= s < 2**63

    def test_rng_for_reproducible_stream(self):
        a = rng_for(7, "stream").random(5)
        b = rng_for(7, "stream").random(5)
        assert np.array_equal(a, b)


class TestBitsForMagnitude:
    def test_zero_needs_zero(self):
        assert bits_for_magnitude(np.array([0]))[0] == 0

    def test_powers_of_two(self):
        vals = np.array([1, 2, 4, 8, 255, 256, 32767])
        expected = np.array([1, 2, 3, 4, 8, 9, 15])
        assert np.array_equal(bits_for_magnitude(vals), expected)

    def test_negative_uses_magnitude(self):
        assert bits_for_magnitude(np.array([-255]))[0] == 8

    @given(st.integers(min_value=1, max_value=2**40))
    def test_matches_bit_length(self, v):
        assert bits_for_magnitude(np.array([v]))[0] == v.bit_length()


class TestBitsForSigned:
    def test_zero_is_one_bit(self):
        assert bits_for_signed(np.array([0]))[0] == 1

    def test_boundary_values(self):
        # -2^(n-1) and 2^(n-1)-1 both fit exactly n bits.
        vals = np.array([-1, 1, -2, -128, 127, 128, -129, 32767, -32768])
        expected = np.array([1, 2, 2, 8, 8, 9, 9, 16, 16])
        assert np.array_equal(bits_for_signed(vals), expected)

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_value_fits_claimed_width(self, v):
        bits = int(bits_for_signed(np.array([v]))[0])
        lo, hi = signed_range(bits)
        assert lo <= v <= hi

    @given(st.integers(min_value=-(2**40), max_value=2**40).filter(lambda v: v != 0))
    def test_width_is_minimal(self, v):
        bits = int(bits_for_signed(np.array([v]))[0])
        if bits > 1:
            lo, hi = signed_range(bits - 1)
            assert not (lo <= v <= hi)


class TestSignedRange:
    def test_known_ranges(self):
        assert signed_range(1) == (-1, 0)
        assert signed_range(8) == (-128, 127)
        assert signed_range(16) == (-32768, 32767)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            signed_range(0)


class TestQuantizeToWidth:
    def test_saturates_both_ends(self):
        out, clipped = quantize_to_width(np.array([-300, 0, 300]), 8, signed=True)
        assert np.array_equal(out, [-128, 0, 127])
        assert clipped == 2

    def test_passthrough_in_range(self):
        vals = np.array([-128, -1, 0, 127])
        out, clipped = quantize_to_width(vals, 8, signed=True)
        assert np.array_equal(out, vals)
        assert clipped == 0


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_in(self):
        check_in("mode", "a", ("a", "b"))
        with pytest.raises(ValueError, match="mode"):
            check_in("mode", "c", ("a", "b"))

    def test_check_axis(self):
        check_axis("axis", "x")
        check_axis("axis", "y")
        with pytest.raises(ValueError):
            check_axis("axis", "z")
