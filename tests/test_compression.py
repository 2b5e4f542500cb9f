"""Tests for the compression schemes and footprint/traffic accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.footprint import (
    am_requirement_bytes,
    imap_precisions,
    network_footprint,
    normalized_footprints,
    omap_precisions,
)
from repro.compression.schemes import (
    SCHEMES,
    DeltaDynamic,
    NoCompression,
    Profiled,
    RLERepeat,
    RLEZero,
    RawDynamic,
    planar_order,
    scheme,
)
from repro.compression.traffic import network_traffic, normalized_traffic
from repro.models.registry import prepare_model


def _map(values):
    arr = np.asarray(values, dtype=np.int64)
    return arr.reshape(1, 1, -1)


class TestPlanarOrder:
    def test_width_innermost(self):
        fmap = np.arange(2 * 2 * 2).reshape(2, 2, 2)
        # (c,y,x) order: one feature-map row after another.
        assert np.array_equal(planar_order(fmap), np.arange(8))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            planar_order(np.zeros((2, 2)))


class TestNoCompression:
    def test_16_bits_per_value(self):
        assert NoCompression().encoded_bits(_map([0, 1, 2])) == 48

    def test_bits_per_value(self):
        assert NoCompression().bits_per_value(_map([5])) == 16.0


class TestRLEZero:
    def test_dense_map_pays_overhead(self):
        bits = RLEZero().encoded_bits(_map([5, 6, 7, 8]))
        assert bits == 4 * 20  # every value is a token

    def test_sparse_map_compresses(self):
        vals = [0] * 15 + [9]
        assert RLEZero().encoded_bits(_map(vals)) == 20  # one token, skip=15

    def test_long_zero_run_needs_escapes(self):
        vals = [0] * 16 + [9]
        assert RLEZero().encoded_bits(_map(vals)) == 40  # escape + value

    def test_all_zero_map(self):
        assert RLEZero().encoded_bits(_map([0] * 32)) == 2 * 20

    def test_trailing_zeros(self):
        vals = [9] + [0] * 20
        assert RLEZero().encoded_bits(_map(vals)) == 20 + 2 * 20

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_token_count_sufficient(self, values):
        """Token count never below number of nonzeros (decodability floor)."""
        bits = RLEZero().encoded_bits(_map(values))
        nnz = sum(1 for v in values if v != 0)
        assert bits >= nnz * 20


class TestRLERepeat:
    def test_runs_compress(self):
        vals = [7] * 16 + [3] * 16
        assert RLERepeat().encoded_bits(_map(vals)) == 2 * 20

    def test_alternating_values_cost_full(self):
        vals = [1, 2] * 10
        assert RLERepeat().encoded_bits(_map(vals)) == 20 * 20

    def test_long_run_splits(self):
        vals = [7] * 17
        assert RLERepeat().encoded_bits(_map(vals)) == 2 * 20


class TestProfiled:
    def test_uses_context_precision(self):
        assert Profiled().encoded_bits(_map([1, 2, 3]), profiled_precision=9) == 27

    def test_validates_precision(self):
        with pytest.raises(ValueError):
            Profiled().encoded_bits(_map([1]), profiled_precision=0)
        with pytest.raises(ValueError):
            Profiled().encoded_bits(_map([1]), profiled_precision=17)


class TestDynamicSchemes:
    def test_rawd16_on_small_values(self):
        fmap = _map([3] * 16)
        bits = RawDynamic(16).encoded_bits(fmap)
        assert bits == 16 * 2 + 4  # 2-bit payloads + header

    def test_rawd_detects_signed(self):
        fmap = _map([-3] * 16)
        bits = RawDynamic(16).encoded_bits(fmap)
        assert bits == 16 * 3 + 4  # sign bit added

    def test_deltad16_exploits_correlation(self):
        ramp = _map(np.arange(0, 1600, 100))
        delta_bits = DeltaDynamic(16).encoded_bits(ramp)
        raw_bits = RawDynamic(16).encoded_bits(ramp)
        assert delta_bits < raw_bits

    def test_deltad_group_sizes(self):
        fmap = _map(np.arange(256))
        small = DeltaDynamic(16).encoded_bits(fmap)
        large = DeltaDynamic(256).encoded_bits(fmap)
        # More headers for small groups but tighter fits; both finite.
        assert small > 0 and large > 0

    def test_scheme_registry(self):
        for name in (
            "NoCompression", "RLEz", "RLE", "Profiled",
            "RawD8", "RawD16", "RawD256", "DeltaD16", "DeltaD256",
        ):
            assert name in SCHEMES
            assert scheme(name).name == name

    def test_unknown_scheme(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            scheme("Zstd")


class TestFootprint:
    def test_fig5_ordering(self, dncnn_trace):
        ratios = normalized_footprints(
            [dncnn_trace], ["NoCompression", "Profiled", "RawD16", "DeltaD16"]
        )
        assert ratios["NoCompression"] == pytest.approx(1.0)
        # The paper's ordering: DeltaD16 < RawD16 < Profiled < NoCompression.
        assert ratios["DeltaD16"] < ratios["RawD16"] < ratios["Profiled"] < 1.0

    def test_rle_worse_than_dynamic_for_ci(self, dncnn_trace):
        ratios = normalized_footprints([dncnn_trace], ["RLEz", "RLE", "DeltaD16"])
        assert ratios["DeltaD16"] < ratios["RLEz"]
        assert ratios["DeltaD16"] < ratios["RLE"]

    def test_network_footprint_layer_count(self, dncnn_trace):
        layers = network_footprint([dncnn_trace], "DeltaD16")
        assert len(layers) == 20
        assert all(f.bits > 0 for f in layers)

    def test_precision_lists(self, dncnn_trace):
        assert len(imap_precisions([dncnn_trace])) == 20
        assert len(omap_precisions([dncnn_trace])) == 20

    def test_am_requirement_ordering(self, dncnn_trace):
        net = prepare_model("DnCNN")
        kw = dict(height=1080, width=1920)
        base = am_requirement_bytes(net, [dncnn_trace], "NoCompression", **kw)
        prof = am_requirement_bytes(net, [dncnn_trace], "Profiled", **kw)
        rawd = am_requirement_bytes(net, [dncnn_trace], "RawD16", **kw)
        deltad = am_requirement_bytes(net, [dncnn_trace], "DeltaD16", **kw)
        # Table V ordering.
        assert deltad < rawd < prof < base

    def test_am_scales_with_resolution(self, dncnn_trace):
        net = prepare_model("DnCNN")
        hd = am_requirement_bytes(net, [dncnn_trace], "NoCompression", 1080, 1920)
        sd = am_requirement_bytes(net, [dncnn_trace], "NoCompression", 540, 960)
        assert hd == pytest.approx(2 * sd, rel=0.01)


class TestTraffic:
    def test_layer_accounting(self, dncnn_trace):
        net = prepare_model("DnCNN")
        layers = network_traffic(net, [dncnn_trace], "NoCompression", 1080, 1920)
        assert len(layers) == 20
        first = layers[0]
        # imap of layer 1 = 3x1080x1920 at 16b.
        assert first.imap_bytes == pytest.approx(3 * 1080 * 1920 * 2, rel=1e-6)
        assert first.weight_bytes == 64 * 3 * 9 * 2

    def test_fig14_ordering(self, dncnn_trace):
        net = prepare_model("DnCNN")
        ratios = normalized_traffic(
            net, [dncnn_trace],
            ["NoCompression", "Profiled", "RawD16", "DeltaD16"],
            1080, 1920,
        )
        assert ratios["NoCompression"] == pytest.approx(1.0)
        assert ratios["DeltaD16"] < ratios["RawD16"] < ratios["Profiled"] < 1.0

    def test_activations_dominate_at_hd(self, dncnn_trace):
        net = prepare_model("DnCNN")
        layers = network_traffic(net, [dncnn_trace], "NoCompression", 1080, 1920)
        act = sum(l.activation_bytes for l in layers)
        wts = sum(l.weight_bytes for l in layers)
        assert act > 50 * wts  # Section III-F: imaps/omaps dominate
