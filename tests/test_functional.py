"""Tests for integer convolution and resampling primitives."""

import numpy as np
import pytest
from scipy import signal

from repro.nn import functional as F
from repro.utils.rng import rng_for
from tests import oracles


class TestIm2col:
    """The window-major patch layout the conv oracles are written in."""

    def test_shape(self):
        x = np.arange(2 * 5 * 6).reshape(2, 5, 6)
        cols = oracles.im2col(x, (3, 3))
        assert cols.shape == (3, 4, 2, 3, 3)

    def test_window_contents(self):
        x = np.arange(1 * 4 * 4).reshape(1, 4, 4)
        cols = oracles.im2col(x, (2, 2))
        assert np.array_equal(cols[0, 0, 0], [[0, 1], [4, 5]])
        assert np.array_equal(cols[1, 2, 0], [[6, 7], [10, 11]])

    def test_stride(self):
        x = np.arange(1 * 6 * 6).reshape(1, 6, 6)
        cols = oracles.im2col(x, (2, 2), stride=2)
        assert cols.shape == (3, 3, 1, 2, 2)

    def test_dilation(self):
        x = np.arange(1 * 5 * 5).reshape(1, 5, 5)
        cols = oracles.im2col(x, (2, 2), dilation=2)
        assert cols.shape == (3, 3, 1, 2, 2)
        assert np.array_equal(cols[0, 0, 0], [[0, 2], [10, 12]])

    def test_too_small_raises(self):
        with pytest.raises(ValueError, match="too small"):
            oracles.im2col(np.zeros((1, 2, 2)), (3, 3))

    def test_rejects_non_chw(self):
        with pytest.raises(ValueError):
            oracles.im2col(np.zeros((4, 4)), (2, 2))


class TestConv2dInt:
    def test_matches_scipy_correlate(self):
        rng = rng_for(0, "conv-test")
        x = rng.integers(-50, 50, (3, 10, 11))
        w = rng.integers(-20, 20, (4, 3, 3, 3))
        out = F.conv2d_int(x, w)
        # scipy correlate2d per (filter, channel) pair
        ref = np.zeros((4, 8, 9), dtype=np.int64)
        for k in range(4):
            for c in range(3):
                ref[k] += signal.correlate2d(x[c], w[k, c], mode="valid").astype(np.int64)
        assert np.array_equal(out, ref)

    def test_bias_applied(self):
        x = np.ones((1, 3, 3), dtype=np.int64)
        w = np.ones((2, 1, 3, 3), dtype=np.int64)
        out = F.conv2d_int(x, w, bias=np.array([10, -10]))
        assert out[0, 0, 0] == 19
        assert out[1, 0, 0] == -1

    def test_padding_preserves_resolution(self):
        x = np.ones((1, 5, 5), dtype=np.int64)
        w = np.ones((1, 1, 3, 3), dtype=np.int64)
        out = F.conv2d_int(x, w, padding=1)
        assert out.shape == (1, 5, 5)
        assert out[0, 0, 0] == 4  # corner sees only 4 taps
        assert out[0, 2, 2] == 9

    def test_stride(self):
        x = np.arange(36, dtype=np.int64).reshape(1, 6, 6)
        w = np.ones((1, 1, 2, 2), dtype=np.int64)
        out = F.conv2d_int(x, w, stride=2)
        assert out.shape == (1, 3, 3)

    def test_dilated_equals_inserted_zeros(self):
        rng = rng_for(1, "dil")
        x = rng.integers(-30, 30, (2, 12, 12))
        w = rng.integers(-9, 9, (3, 2, 3, 3))
        # Dilation 2 equals convolving with the zero-dilated 5x5 kernel.
        wd = np.zeros((3, 2, 5, 5), dtype=np.int64)
        wd[:, :, ::2, ::2] = w
        assert np.array_equal(
            F.conv2d_int(x, w, dilation=2), F.conv2d_int(x, wd)
        )

    def test_requires_integers(self):
        with pytest.raises(TypeError):
            F.conv2d_int(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2), dtype=np.int64))

    def test_overflow_guard(self):
        x = np.full((1, 64, 64), 32767, dtype=np.int64)
        w = np.full((1, 1, 3, 3), 2**40, dtype=np.int64)
        with pytest.raises(OverflowError):
            F.conv2d_int(x, w)

    def test_overflow_guard_sees_int64_min(self):
        # np.abs wraps INT64_MIN to itself (negative); the bound must not.
        x = np.array([[[np.iinfo(np.int64).min, 0], [0, 0]]], dtype=np.int64)
        with pytest.raises(OverflowError):
            F.conv2d_int(x, np.ones((1, 1, 2, 2), dtype=np.int64))
        with pytest.raises(OverflowError):
            F.conv2d_int(np.ones((1, 2, 2), dtype=np.int64), np.swapaxes(x[None], 0, 1))

    def test_non_4d_weights_named_error(self):
        with pytest.raises(ValueError, match=r"weights must be \(K, C=1, Hf, Wf\)"):
            F.conv2d_int(np.ones((1, 4, 4), dtype=np.int64), np.ones((1, 1, 3), dtype=np.int64))

    def test_channel_mismatch_named_error(self):
        with pytest.raises(ValueError, match=r"weights must be \(K, C=2, Hf, Wf\)"):
            F.conv2d_int(np.ones((2, 4, 4), dtype=np.int64), np.ones((1, 3, 3, 3), dtype=np.int64))

    def test_wrong_length_bias_named_error(self):
        x = np.ones((1, 4, 4), dtype=np.int64)
        w = np.ones((2, 1, 3, 3), dtype=np.int64)
        with pytest.raises(ValueError, match=r"bias must hold one value per filter \(K=2\)"):
            F.conv2d_int(x, w, bias=np.array([1, 2, 3]))
        with pytest.raises(ValueError, match=r"bias must hold one value per filter \(K=2\)"):
            F.conv2d_float(x, w, bias=np.array([1.0, 2.0, 3.0]))


class TestConv2dFloat:
    def test_wrong_length_bias_named_error(self):
        with pytest.raises(ValueError, match=r"bias must hold one value per filter \(K=3\)"):
            F.conv2d_float(np.ones((1, 4, 4)), np.ones((3, 1, 3, 3)), bias=np.ones(2))

    def test_non_4d_weights_named_error(self):
        with pytest.raises(ValueError, match=r"weights must be"):
            F.conv2d_float(np.ones((1, 4, 4)), np.ones((3, 3)))


@pytest.mark.parametrize("conv", [F.conv2d_int, F.conv2d_float], ids=["int", "float"])
class TestConvGeometry:
    """Both convolutions share one column gather, which checks the geometry."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dilation": 0}, "dilation must be > 0"),
            ({"dilation": -1}, "dilation must be > 0"),
            ({"stride": 0}, "stride must be > 0"),
            ({"stride": -2}, "stride must be > 0"),
            ({"padding": -1}, "padding must be >= 0"),
            ({"stride": 1.5}, "stride must be an integer"),
            ({"dilation": 2.0}, "dilation must be an integer"),
            ({"padding": 1.0}, "padding must be an integer"),
            ({"padding": True}, "padding must be an integer"),
        ],
    )
    def test_bad_geometry_named_error(self, conv, kwargs, message):
        x = np.ones((1, 6, 6), dtype=np.int64)
        w = np.ones((1, 1, 3, 3), dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            conv(x, w, **kwargs)

    def test_numpy_integer_geometry_accepted(self, conv):
        x = np.arange(36, dtype=np.int64).reshape(1, 6, 6)
        w = np.ones((1, 1, 3, 3), dtype=np.int64)
        got = conv(x, w, stride=np.int64(2), padding=np.int32(1), dilation=np.uint8(1))
        assert np.array_equal(got, conv(x, w, stride=2, padding=1, dilation=1))

    def test_too_small_raises(self, conv):
        with pytest.raises(ValueError, match="too small"):
            conv(np.zeros((1, 2, 2), dtype=np.int64), np.ones((1, 1, 3, 3), dtype=np.int64))


class TestReshuffles:
    def test_space_to_depth_roundtrip(self):
        rng = rng_for(2, "s2d")
        x = rng.integers(0, 100, (3, 8, 10))
        assert np.array_equal(F.depth_to_space(F.space_to_depth(x, 2), 2), x)

    def test_space_to_depth_shape(self):
        x = np.zeros((3, 8, 8))
        assert F.space_to_depth(x, 2).shape == (12, 4, 4)

    def test_space_to_depth_rejects_indivisible(self):
        with pytest.raises(ValueError):
            F.space_to_depth(np.zeros((1, 5, 4)), 2)

    def test_depth_to_space_rejects_indivisible(self):
        with pytest.raises(ValueError):
            F.depth_to_space(np.zeros((3, 4, 4)), 2)

    def test_depth_to_space_pixel_placement(self):
        # channel blocks land on the 2x2 subpixel grid
        x = np.array([[[1]], [[2]], [[3]], [[4]]])
        out = F.depth_to_space(x, 2)
        assert np.array_equal(out[0], [[1, 2], [3, 4]])

    def test_upsample_nearest(self):
        x = np.array([[[1, 2], [3, 4]]])
        out = F.upsample_nearest(x, 2)
        assert out.shape == (1, 4, 4)
        assert np.array_equal(out[0, :2, :2], [[1, 1], [1, 1]])

    def test_max_pool(self):
        x = np.arange(16).reshape(1, 4, 4)
        out = F.max_pool2d(x, 2)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])

    def test_max_pool_stride(self):
        x = np.arange(25).reshape(1, 5, 5)
        out = F.max_pool2d(x, 3, 2)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 12

    @pytest.mark.parametrize(
        "kernel, stride, message",
        [
            (2, 0, "stride must be > 0"),
            (2, -1, "stride must be > 0"),
            (2, 1.0, "stride must be an integer"),
            (0, None, "kernel must be > 0"),
            (-2, None, "kernel must be > 0"),
            (2.0, None, "kernel must be an integer"),
            (True, None, "kernel must be an integer"),
        ],
    )
    def test_max_pool_bad_geometry_named_error(self, kernel, stride, message):
        with pytest.raises(ValueError, match=message):
            F.max_pool2d(np.arange(16).reshape(1, 4, 4), kernel, stride)

    def test_max_pool_numpy_integer_geometry_accepted(self):
        x = np.arange(25).reshape(1, 5, 5)
        assert np.array_equal(F.max_pool2d(x, np.int64(3), np.uint8(2)), F.max_pool2d(x, 3, 2))

    @pytest.mark.parametrize(
        "factor, message",
        [
            (0, "factor must be > 0"),
            (-1, "factor must be > 0"),
            (2.0, "factor must be an integer"),
        ],
    )
    def test_upsample_bad_factor_named_error(self, factor, message):
        with pytest.raises(ValueError, match=message):
            F.upsample_nearest(np.ones((1, 2, 2)), factor)
