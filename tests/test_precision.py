"""Tests for profiled and dynamic per-group precision detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.precision import (
    HEADER_BITS,
    MAX_PRECISION,
    group_precisions,
    profiled_precision,
)
from repro.utils.bits import signed_range
from tests import oracles

#: +-2**k and its neighbours, where one more bit starts to be needed.
_EDGE = st.builds(
    lambda k, d, sign: sign * (2**k + d),
    st.integers(0, 40),
    st.integers(-1, 1),
    st.sampled_from([-1, 1]),
)
#: Values whose groups include all-zero runs and magnitudes up to 2**40.
_WIDE = st.one_of(st.just(0), st.integers(-(2**40), 2**40), _EDGE)


class TestProfiledPrecision:
    def test_unsigned_magnitude(self):
        assert profiled_precision([np.array([0, 3, 255])]) == 8

    def test_signed_includes_sign_bit(self):
        assert profiled_precision([np.array([-128, 127])], signed=True) == 8
        assert profiled_precision([np.array([128])], signed=True) == 9

    def test_across_arrays_takes_max(self):
        arrays = [np.array([1]), np.array([1000])]
        assert profiled_precision(arrays) == 10

    def test_clamped_to_max(self):
        assert profiled_precision([np.array([65535])]) == MAX_PRECISION

    def test_rejects_negative_for_unsigned(self):
        with pytest.raises(ValueError):
            profiled_precision([np.array([-1])], signed=False)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            profiled_precision([])
        with pytest.raises(ValueError):
            profiled_precision([np.array([])])

    def test_all_zeros_is_one_bit(self):
        assert profiled_precision([np.zeros(10, dtype=np.int64)]) == 1

    @given(st.lists(st.integers(min_value=0, max_value=32767), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_every_value_fits(self, values):
        p = profiled_precision([np.array(values)])
        assert all(v < 2**p for v in values)


class TestGroupPrecisions:
    def test_per_group_detection(self):
        values = np.array([0] * 16 + [255] * 16 + [3] * 16)
        enc = group_precisions(values, 16)
        assert np.array_equal(enc.precisions, [1, 8, 2])

    def test_header_accounting(self):
        enc = group_precisions(np.zeros(32, dtype=np.int64), 16)
        assert enc.header_bits == 2 * HEADER_BITS
        assert enc.payload_bits == 2 * 16 * 1  # all-zero groups store 1 bit

    def test_tail_group_padded(self):
        enc = group_precisions(np.array([255] * 20), 16)
        assert len(enc.precisions) == 2
        assert enc.values == 32

    def test_signed_widths(self):
        enc = group_precisions(np.array([-1] * 16), 16, signed=True)
        assert enc.precisions[0] == 1  # -1 fits one two's complement bit
        enc2 = group_precisions(np.array([-129] * 16), 16, signed=True)
        assert enc2.precisions[0] == 9

    def test_total_bits(self):
        enc = group_precisions(np.array([255] * 16), 16)
        assert enc.total_bits == 16 * 8 + HEADER_BITS

    def test_empty(self):
        enc = group_precisions(np.array([], dtype=np.int64), 16)
        assert enc.total_bits == 0
        assert enc.mean_precision == 0.0

    def test_group_size_validated(self):
        with pytest.raises(ValueError):
            group_precisions(np.array([1]), 0)

    @given(
        st.lists(st.integers(min_value=-32768, max_value=32767), min_size=1, max_size=80),
        st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=50)
    def test_every_value_fits_its_group_width(self, values, group):
        arr = np.array(values)
        enc = group_precisions(arr, group, signed=True)
        padded = np.zeros(len(enc.precisions) * group, dtype=np.int64)
        padded[: arr.size] = arr
        for g, p in enumerate(enc.precisions):
            lo, hi = signed_range(int(p))
            chunk = padded[g * group : (g + 1) * group]
            assert chunk.min() >= lo and chunk.max() <= hi

    def test_dynamic_never_beats_16b_by_less_than_metadata(self):
        # Worst case (full-width groups) costs the header on top of 16b.
        enc = group_precisions(np.array([32767] * 32), 16)
        assert enc.total_bits == 32 * 15 + 2 * HEADER_BITS  # 32767 needs 15 magnitude bits


class TestGroupPrecisionsOracle:
    """Production reduces each group first; the spec widths every value."""

    @given(
        st.lists(_WIDE, max_size=600),
        st.sampled_from([1, 8, 16, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_signed_matches_per_value_rule(self, values, group):
        arr = np.array(values, dtype=np.int64)
        enc = group_precisions(arr, group, signed=True)
        expected = oracles.group_widths(arr, group, signed=True)
        assert np.array_equal(enc.precisions, expected)
        assert enc.values == expected.size * group

    @given(
        st.lists(st.one_of(st.just(0), st.integers(0, 2**40), _EDGE.map(abs)), max_size=600),
        st.sampled_from([1, 8, 16, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_unsigned_matches_per_value_rule(self, values, group):
        arr = np.array(values, dtype=np.int64)
        enc = group_precisions(arr, group, signed=False)
        expected = oracles.group_widths(arr, group, signed=False)
        assert np.array_equal(enc.precisions, expected)
        assert enc.values == expected.size * group

    @pytest.mark.parametrize("group", [1, 8, 16, 256])
    def test_all_zero_groups_and_ragged_tail(self, group):
        arr = np.zeros(3 * group + 5, dtype=np.int64)
        arr[-1] = -(2**40)
        for signed in (True, False):
            values = arr if signed else np.abs(arr)
            enc = group_precisions(values, group, signed=signed)
            expected = oracles.group_widths(values, group, signed=signed)
            assert np.array_equal(enc.precisions, expected)
            assert enc.precisions[0] == 1
            assert enc.precisions[-1] == MAX_PRECISION

    def test_unsigned_negatives_rejected_like_the_spec(self):
        arr = np.array([3, -1, 7])
        for widths in (
            lambda: group_precisions(arr, 8, signed=False),
            lambda: oracles.group_widths(arr, 8, signed=False),
        ):
            with pytest.raises(ValueError, match="negatives"):
                widths()


class TestNetworkPrecisions:
    def test_profile_matches_layer_ranges(self, dncnn_trace):
        precs = [profiled_precision([layer.imap]) for layer in dncnn_trace]
        assert len(precs) == 20
        # All within the plausible Table III band for 16b fixed point.
        assert all(4 <= p <= 16 for p in precs)
