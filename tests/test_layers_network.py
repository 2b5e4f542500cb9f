"""Tests for layers, calibration, quantization, and trace capture."""

import pickle

import numpy as np
import pytest

from repro.models.weights import conv, synth_filter_bank
from repro.nn.fixed_point import INPUT_SCALE, quantize
from repro.nn.layers import (
    AppendConstantChannels,
    Conv2d,
    DepthToSpace,
    GlobalResidualAdd,
    MaxPool2d,
    SpaceToDepth,
    UpsampleNearest,
)
from repro.nn.network import Network
from repro.utils.rng import rng_for


def _conv(name="c", cin=3, cout=8, relu=True, sparsity=0.4, **kw):
    gen = rng_for(0, "layer-test", name, cin, cout)
    return conv(gen, name, cin, cout, relu=relu, sparsity=sparsity, **kw)


class TestConv2d:
    def test_same_padding_default(self):
        layer = _conv()
        assert layer.padding == 1
        assert layer.out_shape((3, 20, 20)) == (8, 20, 20)

    def test_dilated_same_padding(self):
        gen = rng_for(0, "dil")
        layer = conv(gen, "d", 4, 4, dilation=3)
        assert layer.padding == 3
        assert layer.out_shape((4, 16, 16)) == (4, 16, 16)
        assert layer.effective_kernel == 7

    def test_out_shape_checks_channels(self):
        with pytest.raises(ValueError, match="expected 3 channels"):
            _conv().out_shape((5, 10, 10))

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError, match="weights shape"):
            Conv2d("bad", 3, 8, 3, np.zeros((8, 3, 5, 5)))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"stride": 0}, "stride must be > 0"),
            ({"stride": 1.5}, "stride must be an integer"),
            ({"dilation": 0}, "dilation must be > 0"),
            ({"dilation": 2.0}, "dilation must be an integer"),
            ({"padding": -1}, "padding must be >= 0"),
            ({"padding": 1.0}, "padding must be an integer"),
        ],
    )
    def test_geometry_validated_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Conv2d("bad", 3, 8, 3, np.zeros((8, 3, 3, 3)), **kwargs)

    def test_sparsity_target_validated(self):
        with pytest.raises(ValueError, match="sparsity_target"):
            Conv2d("bad", 3, 8, 3, np.zeros((8, 3, 3, 3)), sparsity_target=1.5)

    def test_forward_int_before_quantize_raises(self):
        layer = _conv()
        with pytest.raises(RuntimeError, match="quantize"):
            layer.forward_int(np.zeros((3, 8, 8), dtype=np.int64), 8)

    def test_bias_fit_hits_sparsity_target(self):
        layer = _conv(sparsity=0.3)
        gen = rng_for(1, "img")
        x = gen.random((3, 40, 40))
        out = layer.calibrate(x)
        sparsity = float((out == 0).mean())
        assert abs(sparsity - 0.3) < 0.05

    def test_int_matches_float_closely(self, tiny_network):
        net, imgs = tiny_network
        out_f = net.forward_float(imgs[0])
        x_int = quantize(imgs[0], INPUT_SCALE)
        out_i, scale = net.forward_int(x_int)
        err = np.abs(out_f - out_i / 2**scale).max()
        # Error accumulates through 3 layers of rounding; stays small.
        assert err < 0.05 * max(np.abs(out_f).max(), 1.0)

    def test_macs_per_window(self):
        assert _conv().macs_per_window() == 3 * 9


class TestReshuffleLayers:
    def test_space_to_depth_shapes(self):
        layer = SpaceToDepth("s", 2)
        assert layer.out_shape((3, 8, 8)) == (12, 4, 4)

    def test_depth_to_space_shapes(self):
        layer = DepthToSpace("d", 2)
        assert layer.out_shape((12, 4, 4)) == (3, 8, 8)

    def test_upsample_shapes(self):
        layer = UpsampleNearest("u", 3)
        assert layer.out_shape((4, 5, 5)) == (4, 15, 15)

    def test_maxpool_int_scale_passthrough(self):
        layer = MaxPool2d("p", 2)
        x = np.arange(16, dtype=np.int64).reshape(1, 4, 4)
        out, scale = layer.forward_int(x, 9)
        assert scale == 9
        assert out.max() == 15

    def test_append_constant_channels(self):
        layer = AppendConstantChannels("n", 2, 0.25)
        out = layer.forward_float(np.zeros((3, 4, 4)))
        assert out.shape == (5, 4, 4)
        assert np.all(out[3:] == 0.25)
        out_i, scale = layer.forward_int(np.zeros((3, 4, 4), dtype=np.int64), 8)
        assert np.all(out_i[3:] == 64)  # 0.25 * 2^8


class TestGlobalResidualAdd:
    def test_requires_bind(self):
        layer = GlobalResidualAdd("r")
        with pytest.raises(RuntimeError, match="bind_input"):
            layer.forward_float(np.zeros((3, 4, 4)))

    def test_adds_input_float(self):
        layer = GlobalResidualAdd("r")
        ref = np.full((3, 4, 4), 2.0)
        layer.bind_input(x_float=ref)
        out = layer.forward_float(np.ones((3, 4, 4)))
        assert np.all(out == 3.0)

    def test_center_crop_on_shrunk_maps(self):
        layer = GlobalResidualAdd("r")
        ref = np.zeros((1, 6, 6))
        ref[0, 2:4, 2:4] = 5.0
        layer.bind_input(x_float=ref)
        out = layer.forward_float(np.zeros((1, 2, 2)))
        assert np.all(out == 5.0)

    def test_int_scale_alignment(self):
        layer = GlobalResidualAdd("r")
        ref = np.full((1, 2, 2), 256, dtype=np.int64)  # 1.0 at scale 8
        layer.bind_input(x_int=ref, scale=8)
        x = np.full((1, 2, 2), 1024, dtype=np.int64)  # 1.0 at scale 10
        out, scale = layer.forward_int(x, 10)
        assert scale == 8
        assert np.all(out == 512)  # 2.0 at scale 8


class TestNetwork:
    def test_layer_counts(self, tiny_network):
        net, _ = tiny_network
        assert net.num_conv_layers == 3
        assert net.num_relu_layers == 2

    def test_out_shape_chain(self, tiny_network):
        net, _ = tiny_network
        assert net.out_shape((3, 32, 32)) == (3, 32, 32)

    def test_requires_calibration_before_int(self):
        gen = rng_for(3, "uncal")
        net = Network("u", [conv(gen, "c", 3, 4)], 3)
        with pytest.raises(RuntimeError, match="calibrate"):
            net.forward_int(np.zeros((3, 8, 8), dtype=np.int64))

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            Network("empty", [], 3)

    def test_calibrate_empty_rejected(self):
        gen = rng_for(4, "cal")
        net = Network("n", [conv(gen, "c", 3, 4)], 3)
        with pytest.raises(ValueError, match="at least one image"):
            net.calibrate([])

    def test_input_shape_checked(self, tiny_network):
        net, _ = tiny_network
        with pytest.raises(ValueError, match="expects"):
            net.forward_float(np.zeros((5, 32, 32)))

    def test_weight_size_accounting(self, tiny_network):
        net, _ = tiny_network
        # conv1: 16*3*9*2, conv2: 16*16*9*2, conv3: 3*16*9*2 bytes
        assert net.total_weight_bytes() == (16 * 3 + 16 * 16 + 3 * 16) * 9 * 2
        assert net.max_layer_filter_bytes() == 16 * 16 * 9 * 2
        assert net.max_filter_bytes() == 16 * 9 * 2


class TestTrace:
    def test_trace_structure(self, tiny_network):
        net, imgs = tiny_network
        trace = net.trace(imgs[0])
        assert len(trace) == 3
        assert trace[0].imap_shape == (3, 32, 32)
        assert trace[1].imap_shape == (16, 32, 32)
        assert trace[2].omap_shape == (3, 32, 32)

    def test_trace_imap_is_previous_omap(self, tiny_network):
        net, imgs = tiny_network
        trace = net.trace(imgs[0])
        assert np.array_equal(trace[1].imap, trace[0].omap)

    def test_trace_post_relu_nonnegative(self, tiny_network):
        net, imgs = tiny_network
        trace = net.trace(imgs[0])
        assert trace[0].omap.min() >= 0
        assert trace[1].omap.min() >= 0

    def test_macs(self, tiny_network):
        net, imgs = tiny_network
        trace = net.trace(imgs[0])
        assert trace[0].macs == 32 * 32 * 16 * 3 * 9

    def test_layer_named(self, tiny_network):
        net, imgs = tiny_network
        trace = net.trace(imgs[0])
        assert trace.layer_named("conv2").index == 1
        with pytest.raises(KeyError):
            trace.layer_named("nope")

    def test_padded_imap(self, tiny_network):
        net, imgs = tiny_network
        layer = net.trace(imgs[0])[0]
        padded = layer.padded_imap()
        assert padded.shape == (3, 34, 34)
        assert padded[:, 0, :].max() == 0


def _residual_network():
    gen = rng_for(6, "residual-net")
    layers = [
        conv(gen, "conv1", 3, 8, sparsity=0.4),
        conv(gen, "conv2", 8, 3, relu=False, gain=0.2),
        GlobalResidualAdd("residual"),
    ]
    return Network("residual", layers, input_channels=3)


def _residual_inputs(net):
    (add,) = [layer for layer in net.layers if isinstance(layer, GlobalResidualAdd)]
    return add._input_float, add._input_int, add._input_scale


class TestResidualInputsUnbound:
    """A residual add sees the network input only while a pass runs."""

    IMAGES = [rng_for(6, "residual-img", i).random((3, 16, 16)) for i in range(2)]

    def test_calibrated_pickle_holds_no_input(self):
        net = _residual_network()
        net.calibrate(self.IMAGES)
        assert _residual_inputs(net) == (None, None, None)
        assert _residual_inputs(pickle.loads(pickle.dumps(net))) == (None, None, None)

    def test_every_pass_unbinds(self):
        net = _residual_network()
        net.calibrate(self.IMAGES)
        net.forward_float(self.IMAGES[0])
        net.forward_int(quantize(self.IMAGES[0], INPUT_SCALE))
        net.trace(self.IMAGES[1])
        assert _residual_inputs(net) == (None, None, None)

    def test_failed_pass_unbinds(self):
        gen = rng_for(7, "mismatch")
        net = Network("bad", [conv(gen, "c", 3, 4), GlobalResidualAdd("r")], 3)
        with pytest.raises(ValueError, match="channel mismatch"):
            net.forward_float(self.IMAGES[0])
        assert _residual_inputs(net) == (None, None, None)

    def test_traced_twice_identically(self):
        net = _residual_network()
        net.calibrate(self.IMAGES)
        first, second = net.trace(self.IMAGES[0]), net.trace(self.IMAGES[0])
        assert len(first) == len(second) == 2
        for a, b in zip(first, second):
            assert a.imap.dtype == b.imap.dtype and a.omap.dtype == b.omap.dtype
            assert np.array_equal(a.imap, b.imap) and np.array_equal(a.omap, b.omap)
        x = quantize(self.IMAGES[0], INPUT_SCALE)
        (out1, scale1), (out2, scale2) = net.forward_int(x), net.forward_int(x)
        assert scale1 == scale2 and np.array_equal(out1, out2)


class TestSynthFilterBank:
    def test_shape_and_scaling(self):
        gen = rng_for(5, "bank")
        bank = synth_filter_bank(gen, 8, 4, 3, smoothness=0.5)
        assert bank.shape == (8, 4, 3, 3)
        # He scaling: std ~ 1/sqrt(fan_in)
        assert abs(bank.std() - 1 / np.sqrt(36)) < 0.02

    def test_smoothness_bounds(self):
        gen = rng_for(6, "bank")
        with pytest.raises(ValueError):
            synth_filter_bank(gen, 4, 4, 3, smoothness=1.5)
        with pytest.raises(ValueError):
            synth_filter_bank(gen, 4, 4, 3, smoothness=-0.1)

    def test_smoother_banks_are_smoother(self):
        gen1 = rng_for(7, "a")
        gen2 = rng_for(7, "a")
        rough = synth_filter_bank(gen1, 16, 16, 3, smoothness=0.0)
        smooth = synth_filter_bank(gen2, 16, 16, 3, smoothness=0.9)

        def highfreq_energy(bank):
            d = np.diff(bank, axis=-1)
            return float((d**2).mean() / (bank**2).mean())

        assert highfreq_energy(smooth) < highfreq_energy(rough)
