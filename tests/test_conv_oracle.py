"""Oracle tests for both convolutions and the calibration pass.

Production ``conv2d_int`` and ``conv2d_float`` gather their columns
tap-major and multiply ``W @ cols``; ``tests/oracles/conv.py`` keeps the
window-major im2col and ``flat @ W.T`` they replaced.  The integer
convolution is exact, so every drawn geometry must give the same
``int64`` accumulators.  The float one rounds differently on some shapes:
it must match the oracle to ``1e-13`` of the output's magnitude, bit for
bit on every call the five CI-DNNs' calibration makes, and every model
calibrated through either gemm must freeze the same integer network.
Production ``Conv2d.calibrate`` convolves once per image; the oracle
convolves twice.  Every fitted and frozen field of every layer of the
five CI-DNNs must come out array-equal.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.datasets import dataset
from repro.models.inputs import adapt_input
from repro.models.registry import CI_MODELS, get_model_spec
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from tests import oracles

#: Every field calibration fits or quantization freezes on a ``Conv2d``.
CALIBRATED_FIELDS = (
    "bias",
    "_calib_max_abs",
    "int_weights",
    "int_bias",
    "weight_scale",
    "out_scale",
    "forced_out_scale",
)

#: RGB crop edge for the calibration images (half the trace crop's edge,
#: to keep 15 model builds cheap; every model's input adapter accepts it).
CALIB_CROP = 32
CALIB_COUNT = 2


def _assert_same_conv(x, w, bias=None, stride=1, padding=0, dilation=1):
    got = F.conv2d_int(x, w, bias, stride, padding, dilation)
    want = oracles.conv2d_int(x, w, bias, stride, padding, dilation)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def conv_cases(draw):
    stride = draw(st.integers(1, 3))
    dilation = draw(st.integers(1, 4))
    padding = draw(st.integers(0, 4))
    c = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    hf = draw(st.integers(1, 3))
    wf = draw(st.integers(1, 3))
    eff_h, eff_w = (hf - 1) * dilation + 1, (wf - 1) * dilation + 1
    h = draw(st.integers(max(1, eff_h - 2 * padding), 14))
    w = draw(st.integers(max(1, eff_w - 2 * padding), 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.integers(-(2**15), 2**15, (c, h, w), dtype=np.int64)
    wts = rng.integers(-(2**15), 2**15, (k, c, hf, wf), dtype=np.int64)
    bias = rng.integers(-(2**30), 2**30, k, dtype=np.int64) if draw(st.booleans()) else None
    return x, wts, bias, stride, padding, dilation


class TestConv2dIntOracle:
    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_matches_window_major_spec(self, case):
        _assert_same_conv(*case)

    @settings(max_examples=50, deadline=None)
    @given(conv_cases())
    def test_int16_weights_equal_int64_weights(self, case):
        x, w, bias, stride, padding, dilation = case
        narrow = w.astype(np.int16)  # the drawn weights already fit 16 bits
        want = F.conv2d_int(x, w, bias, stride, padding, dilation)
        got = F.conv2d_int(x, narrow, bias, stride, padding, dilation)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "c, k, hf, wf", [(1, 1, 3, 3), (1, 4, 3, 3), (4, 1, 3, 3), (1, 1, 1, 1), (3, 2, 1, 3)]
    )
    @pytest.mark.parametrize("stride, padding, dilation", [(1, 1, 1), (2, 0, 3), (3, 4, 4)])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_single_channel_and_single_filter(
        self, c, k, hf, wf, stride, padding, dilation, with_bias
    ):
        rng = np.random.default_rng([c, k, hf, wf, stride, padding, dilation])
        x = rng.integers(-(2**15), 2**15, (c, 13, 9), dtype=np.int64)
        w = rng.integers(-(2**15), 2**15, (k, c, hf, wf), dtype=np.int64)
        bias = rng.integers(-1000, 1000, k) if with_bias else None
        _assert_same_conv(x, w, bias, stride, padding, dilation)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint8])
    def test_narrow_input_dtypes(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(7)
        x = rng.integers(info.min, int(info.max) + 1, (3, 10, 12)).astype(dtype)
        w = rng.integers(-128, 128, (2, 3, 3, 3)).astype(np.int16)
        _assert_same_conv(x, w, None, 1, 1, 2)


@st.composite
def float_conv_cases(draw):
    stride = draw(st.integers(1, 3))
    dilation = draw(st.integers(1, 4))
    padding = draw(st.integers(0, 4))
    c = draw(st.integers(1, 6))
    k = draw(st.sampled_from([1, 1, 2, 3, 5, 16]))
    hf = draw(st.sampled_from([1, 1, 2, 3]))
    wf = draw(st.sampled_from([1, hf, 3]))
    eff_h, eff_w = (hf - 1) * dilation + 1, (wf - 1) * dilation + 1
    h = draw(st.integers(max(1, eff_h - 2 * padding), 14))
    w = draw(st.integers(max(1, eff_w - 2 * padding), 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c, h, w))
    wts = rng.standard_normal((k, c, hf, wf))
    bias = rng.standard_normal(k) if draw(st.booleans()) else None
    return x, wts, bias, stride, padding, dilation


class TestConv2dFloatOracle:
    @settings(max_examples=200, deadline=None)
    @given(float_conv_cases())
    @example((np.ones((3, 5, 5)) / 3, np.ones((1, 3, 1, 1)) / 7, None, 1, 0, 1))
    def test_matches_window_major_spec_to_rounding(self, case):
        got = F.conv2d_float(*case)
        want = oracles.conv2d_float(*case)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        scale = float(np.max(np.abs(want), initial=0.0))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", sorted(CI_MODELS))
    def test_ci_calibration_calls_are_bit_identical(self, name, monkeypatch):
        calls = []
        real = F.conv2d_float

        def recording(*args):
            out = real(*args)
            calls.append((args, out.copy()))  # calibrate adds the bias in place
            return out

        monkeypatch.setattr(F, "conv2d_float", recording)
        get_model_spec(name).builder(0).calibrate(_calibration_images(name, 0))
        assert calls
        for args, got in calls:
            assert np.array_equal(got, oracles.conv2d_float(*args))


def _calibration_images(name: str, seed: int, edge: int = CALIB_CROP) -> list:
    spec = get_model_spec(name)
    crops = dataset("Kodak24").crops(edge, CALIB_COUNT, seed=seed)
    return [adapt_input(spec.input_adapter, crop) for crop in crops]


#: ``(owner, attribute, oracle)``: calibrate through the window-major gemm,
#: or with two convolutions per layer and image.
WINDOW_MAJOR_GEMM = (F, "conv2d_float", oracles.conv2d_float)
TWO_PASS_CALIBRATE = (Conv2d, "calibrate", oracles.calibrate_two_pass)


def _calibrate_both_ways(name, seed, images, swap, monkeypatch):
    """The model's conv layers calibrated as is and with ``swap`` bound, paired."""
    net = get_model_spec(name).builder(seed)
    net.calibrate(images)
    with monkeypatch.context() as patched:
        patched.setattr(*swap)
        ref = get_model_spec(name).builder(seed)
        ref.calibrate(images)
    assert len(net.conv_layers) == len(ref.conv_layers)
    return zip(net.conv_layers, ref.conv_layers)


def _assert_same_fields(layer_pairs, float_rtol=None):
    """Every calibrated field equal; ``float_rtol`` relaxes the two float ones."""
    for got, want in layer_pairs:
        for field in CALIBRATED_FIELDS:
            a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert a.dtype == b.dtype, (got.name, field)
            if float_rtol is not None and field in ("bias", "_calib_max_abs"):
                np.testing.assert_allclose(a, b, rtol=float_rtol, atol=0, err_msg=got.name)
            else:
                assert np.array_equal(a, b), (got.name, field)


class TestCalibratedNetworkOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(CI_MODELS))
    def test_ci_networks_are_identical(self, name, seed, monkeypatch):
        images = _calibration_images(name, seed)
        _assert_same_fields(
            _calibrate_both_ways(name, seed, images, WINDOW_MAJOR_GEMM, monkeypatch)
        )

    @pytest.mark.parametrize("name", ["AlexNet", "NiN"])
    def test_classification_integer_fields_are_identical(self, name, monkeypatch):
        # Their 1x1 convs and AlexNet's conv_1 round differently in the two
        # gemms, so the float fields agree only to rounding.
        images = _calibration_images(name, 0, get_model_spec(name).trace_crop)
        _assert_same_fields(
            _calibrate_both_ways(name, 0, images, WINDOW_MAJOR_GEMM, monkeypatch),
            float_rtol=1e-10,
        )


class TestCalibrateOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(CI_MODELS))
    def test_one_convolution_calibration_matches_two(self, name, seed, monkeypatch):
        images = _calibration_images(name, seed)
        _assert_same_fields(
            _calibrate_both_ways(name, seed, images, TWO_PASS_CALIBRATE, monkeypatch)
        )

    @pytest.mark.parametrize("name", sorted(CI_MODELS))
    def test_one_float_convolution_per_layer_per_image(self, name, monkeypatch):
        calls = []
        real = F.conv2d_float

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(F, "conv2d_float", counting)
        net = get_model_spec(name).builder(0)
        images = _calibration_images(name, 0)
        net.calibrate(images)
        assert len(calls) == len(images) * net.num_conv_layers
