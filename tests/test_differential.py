"""Differential convolution: bit-exact equality with direct convolution.

This is the paper's central claim (Eq 4): differential convolution is a
re-association of the same integer arithmetic, not an approximation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import differential
from repro.core.deltas import spatial_deltas
from repro.core.differential import (
    differential_conv2d,
    keyframe_anchor_mask,
    keyframe_deltas,
    reconstruct_from_keyframes,
)
from repro.nn.functional import conv2d_int
from repro.utils.rng import rng_for
from tests.oracles import im2col


def _random_case(rng, c=4, h=12, w=13, k=3, filters=5):
    x = rng.integers(-2000, 2000, (c, h, w))
    wts = rng.integers(-500, 500, (filters, c, k, k))
    return x, wts


class TestExactness:
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_direct(self, axis, stride, padding):
        rng = rng_for(0, "diff", axis, stride, padding)
        x, w = _random_case(rng)
        ref = conv2d_int(x, w, None, stride, padding)
        got = differential_conv2d(x, w, None, stride, padding, 1, axis)
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_matches_direct_dilated(self, dilation):
        rng = rng_for(1, "dil", dilation)
        x, w = _random_case(rng, h=16, w=16)
        pad = dilation
        ref = conv2d_int(x, w, None, 1, pad, dilation)
        got = differential_conv2d(x, w, None, 1, pad, dilation)
        assert np.array_equal(ref, got)

    def test_with_bias(self):
        rng = rng_for(2, "bias")
        x, w = _random_case(rng)
        bias = rng.integers(-1000, 1000, 5)
        ref = conv2d_int(x, w, bias, 1, 1)
        got = differential_conv2d(x, w, bias, 1, 1)
        assert np.array_equal(ref, got)

    def test_1x1_kernel(self):
        rng = rng_for(3, "1x1")
        x = rng.integers(-100, 100, (6, 8, 8))
        w = rng.integers(-50, 50, (4, 6, 1, 1))
        assert np.array_equal(conv2d_int(x, w), differential_conv2d(x, w))

    def test_single_output_column(self):
        rng = rng_for(4, "edge")
        x = rng.integers(-50, 50, (2, 5, 3))
        w = rng.integers(-9, 9, (1, 2, 3, 3))
        assert np.array_equal(conv2d_int(x, w), differential_conv2d(x, w))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_random_property(self, seed):
        rng = rng_for(seed, "prop")
        c = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, k + 8))
        w = int(rng.integers(k, k + 8))
        x = rng.integers(-3000, 3000, (c, h, w))
        wts = rng.integers(-300, 300, (2, c, k, k))
        axis = "x" if seed % 2 else "y"
        assert np.array_equal(
            conv2d_int(x, wts), differential_conv2d(x, wts, axis=axis)
        )

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            differential_conv2d(
                np.zeros((1, 3, 3), dtype=np.int64),
                np.zeros((1, 1, 3, 3), dtype=np.int64),
                axis="diag",
            )

    @pytest.mark.parametrize("arg", ["x", "weights"])
    @pytest.mark.parametrize("bad", [0.7, np.nan], ids=["fraction", "nan"])
    def test_float_input_fails_naming_the_argument(self, arg, bad, monkeypatch):
        monkeypatch.setattr(
            differential, "conv2d_int", lambda *a, **k: pytest.fail("convolved a float input")
        )
        args = {
            "x": np.ones((1, 3, 3), dtype=np.int64),
            "weights": np.ones((1, 1, 3, 3), dtype=np.int64),
        }
        args[arg] = np.full(args[arg].shape, bad)
        with pytest.raises(ValueError, match=rf"^{arg} must have .*integer.* got float"):
            differential_conv2d(**args)

    def test_delta_windows_are_window_differences(self):
        # Eq 4's Delta: the window over the spatial deltas equals the raw
        # window minus its left neighbour, elementwise.
        rng = rng_for(9, "wd2")
        x = rng.integers(-10, 10, (2, 6, 8))
        raw = im2col(x, (3, 3))
        deltas = im2col(spatial_deltas(x), (3, 3))
        assert np.array_equal(deltas[:, 1:], raw[:, 1:] - raw[:, :-1])


class TestKeyframes:
    """Keyframe anchoring: exact roundtrips, exact endpoints, bounded damage."""

    @given(
        st.integers(1, 40),
        st.one_of(st.none(), st.integers(1, 12)),
    )
    @settings(max_examples=60)
    def test_anchor_mask_period(self, n, interval):
        mask = keyframe_anchor_mask(n, interval)
        assert mask.shape == (n,)
        assert mask[0], "chain heads are always anchors"
        if interval is None:
            assert mask.sum() == 1
        else:
            assert np.array_equal(np.flatnonzero(mask) % interval, np.zeros(mask.sum()))

    @pytest.mark.parametrize("interval", [None, 1, 2, 3, 8, 100])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_roundtrip_exact(self, interval, axis):
        rng = rng_for(11, "kf", str(interval), axis)
        x = rng.integers(-2000, 2000, (3, 9, 14))
        deltas = keyframe_deltas(x, interval, axis=axis)
        assert np.array_equal(reconstruct_from_keyframes(deltas, interval, axis=axis), x)

    def test_interval_none_is_plain_spatial_deltas(self):
        rng = rng_for(12, "kf-none")
        x = rng.integers(-2000, 2000, (2, 7, 11))
        assert np.array_equal(keyframe_deltas(x, None), spatial_deltas(x))

    def test_interval_one_is_the_raw_map(self):
        rng = rng_for(13, "kf-one")
        x = rng.integers(-2000, 2000, (2, 7, 11))
        assert np.array_equal(keyframe_deltas(x, 1), x)

    @pytest.mark.parametrize("interval", [2, 4, 8])
    def test_corruption_contained_to_one_segment(self, interval):
        """One corrupted delta damages at most ``interval`` values and
        never crosses the next anchor — the protection layer's bound."""
        rng = rng_for(14, "kf-contain", str(interval))
        x = rng.integers(-2000, 2000, (1, 4, 32))
        deltas = keyframe_deltas(x, interval)
        hit = interval + 1  # a non-anchor position
        deltas[0, 0, hit] += 1000
        wrong = reconstruct_from_keyframes(deltas, interval) != x
        assert wrong.any()
        cols = np.flatnonzero(wrong.any(axis=(0, 1)))
        assert cols.min() >= hit
        next_anchor = ((hit // interval) + 1) * interval
        assert cols.max() < next_anchor, "damage must stop at the next anchor"
        assert cols.size <= interval

    def test_strided_chains_roundtrip(self):
        rng = rng_for(15, "kf-stride")
        x = rng.integers(-2000, 2000, (2, 5, 24))
        deltas = keyframe_deltas(x, 4, stride=2)
        assert np.array_equal(reconstruct_from_keyframes(deltas, 4, stride=2), x)
