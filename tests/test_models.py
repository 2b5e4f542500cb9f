"""Tests for the model zoo: Table I structure and input adapters."""

import numpy as np
import pytest

from repro.cache.store import clear_memory_caches
from repro.models import registry
from repro.models.inputs import adapt_input, bayer_mosaic, bicubic_upscaled
from repro.models.registry import (
    ALL_MODELS,
    CI_MODELS,
    CLASSIFICATION_MODELS,
    build_model,
    float_weights,
    get_model_spec,
    list_models,
    prepare_model,
)
from repro.nn import functional as F
from repro.weights import network_int8_weights, network_weight_bits


class TestTable1Structure:
    """Layer counts from Table I of the paper."""

    @pytest.mark.parametrize(
        "name,convs,relus",
        [
            ("DnCNN", 20, 19),
            ("FFDNet", 10, 9),
            ("IRCNN", 7, 6),
            ("JointNet", 19, 16),
            ("VDSR", 20, 19),
        ],
    )
    def test_layer_counts(self, name, convs, relus):
        net = build_model(name)
        assert net.num_conv_layers == convs
        assert net.num_relu_layers == relus

    def test_dncnn_filter_sizes(self):
        net = build_model("DnCNN")
        # Table I: max filter 1.13KB (64ch x 3x3 x 2B), max layer 72KB.
        assert net.max_filter_bytes() == 64 * 9 * 2
        assert net.max_layer_filter_bytes() == 64 * 64 * 9 * 2

    def test_ffdnet_max_layer_is_162kb(self):
        net = build_model("FFDNet")
        assert net.max_layer_filter_bytes() == 96 * 96 * 9 * 2  # 162 KB

    def test_jointnet_max_layer_is_144kb(self):
        net = build_model("JointNet")
        assert net.max_layer_filter_bytes() == 128 * 64 * 9 * 2  # 144 KB

    def test_ircnn_dilation_schedule(self):
        net = build_model("IRCNN")
        assert [layer.dilation for layer in net.conv_layers] == [1, 2, 3, 4, 3, 2, 1]

    def test_resolution_preserved_by_ci_models(self):
        for name in CI_MODELS:
            net = build_model(name)
            out = net.out_shape((net.input_channels, 64, 64))
            assert out[1:] == (64, 64), name

    def test_wm_requirement_is_324kb(self):
        # Section IV-C / Table V: "the total weight memory needed for these
        # networks is 324KB" — the double-buffered largest per-layer filter
        # set (2 x FFDNet's 162KB), since WM only holds the fmaps processed
        # concurrently plus the prefetched next set (Section III-F).
        worst = max(build_model(n).max_layer_filter_bytes() for n in CI_MODELS)
        assert 2 * worst == 324 * 1024


class TestRegistry:
    def test_families(self):
        assert set(list_models("ci")) == set(CI_MODELS)
        assert set(list_models("classification")) == set(CLASSIFICATION_MODELS)
        assert set(list_models()) == set(ALL_MODELS)

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model_spec("ResNet-9000")

    def test_classification_zoo_membership(self):
        for name in ("AlexNet", "VGG19", "GoogLeNet", "YOLO_V2", "SegNet", "FCN_Seg", "NiN"):
            assert name in CLASSIFICATION_MODELS

    def test_prepare_model_is_cached(self):
        a = prepare_model("IRCNN")
        b = prepare_model("IRCNN")
        assert a is b

    def test_prepared_model_is_quantized(self):
        assert prepare_model("IRCNN").is_quantized

    @pytest.mark.parametrize("name", sorted(CI_MODELS))
    def test_prepared_weights_are_16_bit(self, name):
        for layer in prepare_model(name).conv_layers:
            assert layer.int_weights.dtype == np.int16, layer.name

    def test_build_model_seed_changes_weights(self):
        a = build_model("IRCNN", seed=1)
        b = build_model("IRCNN", seed=2)
        assert not np.array_equal(a.conv_layers[0].weights, b.conv_layers[0].weights)

    def test_build_model_deterministic(self):
        a = build_model("IRCNN", seed=3)
        b = build_model("IRCNN", seed=3)
        assert np.array_equal(a.conv_layers[0].weights, b.conv_layers[0].weights)


class TestReleasedFloatWeights:
    """A prepared network keeps int16 weights only; the float filters come
    back from its seed, and a float pass fails before any convolution."""

    @pytest.mark.parametrize("name", ["DnCNN", "IRCNN"])
    def test_int8_weights_match_the_built_network(self, name):
        got = network_int8_weights(prepare_model(name, 2))
        want = network_int8_weights(build_model(name, 2))
        assert list(got) == list(want)
        for layer, (ints, scale) in want.items():
            assert got[layer][0].dtype == ints.dtype, layer
            assert np.array_equal(got[layer][0], ints), layer
            assert got[layer][1] == scale, layer

    def test_filters_rebuild_once_per_network(self, monkeypatch):
        clear_memory_caches()  # a network no earlier test has rebuilt
        net = prepare_model("IRCNN", 2)
        calls = []
        real = registry.build_model
        monkeypatch.setattr(
            registry, "build_model", lambda *args: calls.append(args) or real(*args)
        )
        first = float_weights(net)
        network_weight_bits(net, "MSR4W")
        network_int8_weights(net)
        assert calls == [("IRCNN", 2)]
        assert float_weights(net) is first
        assert all(layer.weights is None for layer in net.conv_layers)

    def test_built_network_returns_its_own_filters(self):
        net = build_model("IRCNN", 2)
        assert net.seed == 2
        for layer in net.conv_layers:
            assert float_weights(net)[layer.name] is layer.weights

    @pytest.mark.parametrize(
        "float_pass",
        [
            lambda net: net.forward_float(np.zeros((3, 16, 16))),
            lambda net: net.calibrate([np.zeros((3, 16, 16))]),
        ],
        ids=["forward_float", "calibrate"],
    )
    def test_network_float_pass_names_the_rebuild(self, float_pass, monkeypatch):
        net = prepare_model("IRCNN", 2)
        monkeypatch.setattr(
            F, "conv2d_float", lambda *a, **k: pytest.fail("convolved a released network")
        )
        with pytest.raises(RuntimeError, match=r"IRCNN.*build_model\('IRCNN', 2\)"):
            float_pass(net)

    @pytest.mark.parametrize(
        "float_pass",
        [
            lambda layer: layer.forward_float(np.zeros((layer.in_channels, 8, 8))),
            lambda layer: layer.calibrate(np.zeros((layer.in_channels, 8, 8))),
            lambda layer: layer.quantize(8),
        ],
        ids=["forward_float", "calibrate", "quantize"],
    )
    def test_layer_float_pass_names_the_layer(self, float_pass):
        layer = prepare_model("IRCNN", 2).conv_layers[0]
        before = (layer.weight_scale, layer.out_scale, layer.int_weights)
        with pytest.raises(RuntimeError, match=rf"{layer.name}: .*build_model"):
            float_pass(layer)
        assert (layer.weight_scale, layer.out_scale, layer.int_weights) == before


class TestInputAdapters:
    def test_identity(self):
        img = np.zeros((3, 8, 8))
        assert adapt_input("identity", img) is img

    def test_bayer_shape_and_sampling(self):
        img = np.zeros((3, 4, 4))
        img[0] = 1.0  # red plane
        mosaic = bayer_mosaic(img)
        assert mosaic.shape == (1, 4, 4)
        assert mosaic[0, 0, 0] == 1.0  # R site
        assert mosaic[0, 0, 1] == 0.0  # G site
        assert mosaic[0, 1, 1] == 0.0  # B site

    def test_bayer_requires_even(self):
        with pytest.raises(ValueError, match="even"):
            bayer_mosaic(np.zeros((3, 5, 4)))

    def test_bayer_requires_rgb(self):
        with pytest.raises(ValueError):
            bayer_mosaic(np.zeros((1, 4, 4)))

    def test_upscaled_shape_preserved(self):
        img = np.random.default_rng(0).random((3, 16, 16))
        up = bicubic_upscaled(img)
        assert up.shape == img.shape
        assert up.min() >= 0 and up.max() <= 1

    def test_upscaled_is_smoother(self):
        img = np.random.default_rng(1).random((3, 32, 32))
        up = bicubic_upscaled(img)
        assert np.abs(np.diff(up, axis=-1)).mean() < np.abs(np.diff(img, axis=-1)).mean()

    def test_upscaled_requires_divisible(self):
        with pytest.raises(ValueError):
            bicubic_upscaled(np.zeros((3, 15, 16)))

    def test_unknown_adapter(self):
        with pytest.raises(ValueError, match="unknown input adapter"):
            adapt_input("polar", np.zeros((3, 4, 4)))


class TestSparsityRegimes:
    def test_vdsr_much_sparser_than_dncnn(self, dncnn_trace):
        from tests.conftest import small_trace

        vdsr = small_trace("VDSR")
        sp_vdsr = np.mean([(l.imap == 0).mean() for l in list(vdsr)[2:]])
        sp_dncnn = np.mean([(l.imap == 0).mean() for l in list(dncnn_trace)[2:]])
        assert sp_vdsr > sp_dncnn + 0.05

    def test_dncnn_sparsity_near_target(self, dncnn_trace):
        mids = [(l.imap == 0).mean() for l in list(dncnn_trace)[2:-1]]
        assert 0.25 < float(np.mean(mids)) < 0.60
