"""Tests for fixed-point quantization and requantization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn.fixed_point import quantize, requantize_shift, round_half_away


class TestRoundHalfAway:
    def test_half_rounds_away_from_zero(self):
        vals = np.array([0.5, 1.5, -0.5, -1.5, 2.5])
        assert np.array_equal(round_half_away(vals), [1, 2, -1, -2, 3])

    def test_non_halves_round_nearest(self):
        vals = np.array([0.4, 0.6, -0.4, -0.6])
        assert np.array_equal(round_half_away(vals), [0, 1, 0, -1])

    @given(st.integers(min_value=-(10**6), max_value=10**6))
    def test_integers_unchanged(self, v):
        assert round_half_away(np.array([float(v)]))[0] == v


class TestQuantize:
    def test_scale_semantics(self):
        # 0.5 at scale 8 -> 128.
        assert quantize(np.array([0.5]), 8)[0] == 128

    def test_saturation(self):
        assert quantize(np.array([10.0]), 15)[0] == 32767
        assert quantize(np.array([-10.0]), 15)[0] == -32768

    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1, 1, 1000)
        q = quantize(vals, 12)
        back = q / 2**12
        assert np.abs(back - vals).max() <= 0.5 / 2**12 + 1e-12

    @given(st.floats(min_value=-0.999, max_value=0.999), st.integers(min_value=0, max_value=15))
    def test_quantize_dequantize_within_half_lsb(self, v, scale):
        q = quantize(np.array([v]), scale)
        assert abs(q[0] / 2**scale - v) <= 0.5 / 2**scale + 1e-12


class TestRequantizeShift:
    def test_zero_shift_is_identity_within_range(self):
        vals = np.array([-100, 0, 100])
        assert np.array_equal(requantize_shift(vals, 0), vals)

    def test_rounding_symmetric(self):
        # +3 >> 1 rounds to 2 (3/2 = 1.5 -> 2); -3 >> 1 -> -2.
        assert requantize_shift(np.array([3]), 1)[0] == 2
        assert requantize_shift(np.array([-3]), 1)[0] == -2

    def test_saturates_to_word(self):
        big = np.array([1 << 20])
        assert requantize_shift(big, 1)[0] == 32767

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            requantize_shift(np.array([1]), -1)

    @given(
        st.integers(min_value=-(2**30), max_value=2**30),
        st.integers(min_value=1, max_value=20),
    )
    def test_matches_float_rounding(self, v, shift):
        got = int(requantize_shift(np.array([v]), shift)[0])
        expected = int(round_half_away(np.array([v / 2**shift]))[0])
        expected = max(-32768, min(32767, expected))
        assert got == expected
