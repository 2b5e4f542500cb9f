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


class TestNetworkPrecisions:
    def test_profile_matches_layer_ranges(self, dncnn_trace):
        precs = [profiled_precision([layer.imap]) for layer in dncnn_trace]
        assert len(precs) == 20
        # All within the plausible Table III band for 16b fixed point.
        assert all(4 <= p <= 16 for p in precs)
