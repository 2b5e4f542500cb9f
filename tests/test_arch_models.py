"""Tests for the VAA, PRA, Diffy and SCNN cycle models."""

import dataclasses

import numpy as np
import pytest

from repro.arch.config import DIFFY_CONFIG, PRA_CONFIG, VAA_CONFIG
from repro.arch.diffy import DiffyModel
from repro.arch.pra import PRAModel
from repro.arch.predict import ValuePredictionModel
from repro.arch.scnn import SCNNModel
from repro.arch.vaa import VAAModel
from repro.utils.rng import rng_for


class TestVAA:
    def test_value_agnostic(self, dncnn_trace):
        """VAA cycles depend only on geometry, never on the values."""
        layer = dncnn_trace[3]
        cycles_a = VAAModel().layer_cycles(layer).cycles
        zeroed = dataclasses.replace(layer, imap=np.zeros_like(layer.imap))
        cycles_b = VAAModel().layer_cycles(zeroed).cycles
        assert cycles_a == cycles_b

    def test_cycle_formula(self, dncnn_trace):
        layer = dncnn_trace[3]  # 64 -> 64, 3x3
        got = VAAModel().layer_cycles(layer).cycles
        windows = layer.windows
        steps = 4 * 9  # ceil(64/16) bricks x 9 taps
        assert got == windows * steps  # one filter pass at K=64

    def test_first_layer_not_discounted(self, dncnn_trace):
        """3 input channels still burn a full brick step per tap."""
        layer = dncnn_trace[0]
        got = VAAModel().layer_cycles(layer)
        assert got.cycles == layer.windows * 9
        assert got.channel_occupancy == pytest.approx(3 / 16)


class TestPRADiffy:
    def test_pra_beats_vaa(self, dncnn_trace):
        for layer in list(dncnn_trace)[1:4]:
            vaa = VAAModel().layer_cycles(layer).cycles
            pra = PRAModel().layer_cycles(layer).cycles
            assert pra < vaa

    def test_diffy_beats_pra_on_correlated_layers(self, dncnn_trace):
        vaa_total = pra_total = diffy_total = 0.0
        for layer in dncnn_trace:
            vaa_total += VAAModel().layer_cycles(layer).cycles
            pra_total += PRAModel().layer_cycles(layer).cycles
            diffy_total += DiffyModel().layer_cycles(layer).cycles
        assert diffy_total < pra_total < vaa_total

    def test_zero_imap_is_nearly_free_for_pra(self, dncnn_trace):
        layer = dataclasses.replace(
            dncnn_trace[3], imap=np.zeros_like(dncnn_trace[3].imap)
        )
        assert PRAModel().layer_cycles(layer).cycles == 0.0

    def test_constant_imap_is_nearly_free_for_diffy(self, dncnn_trace):
        """A constant map has zero deltas everywhere except chain heads."""
        const = dataclasses.replace(
            dncnn_trace[3], imap=np.full_like(dncnn_trace[3].imap, 1234)
        )
        diffy = DiffyModel().layer_cycles(const).cycles
        pra = PRAModel().layer_cycles(const).cycles
        assert diffy < 0.25 * pra

    def test_diffy_equals_pra_on_uncorrelated_noise(self, dncnn_trace):
        """On white noise deltas are no smaller than raw values; Diffy's
        advantage must vanish (and may even invert slightly)."""
        rng = rng_for(0, "noise")
        noisy = dataclasses.replace(
            dncnn_trace[3],
            imap=rng.integers(0, 4000, dncnn_trace[3].imap.shape),
        )
        diffy = DiffyModel().layer_cycles(noisy).cycles
        pra = PRAModel().layer_cycles(noisy).cycles
        assert diffy > 0.85 * pra

    def test_diffy_axis_y(self, dncnn_trace):
        layer = dncnn_trace[3]
        dy = DiffyModel(axis="y").layer_cycles(layer).cycles
        dx = DiffyModel(axis="x").layer_cycles(layer).cycles
        # Both axes must deliver comparable benefit (Section III-C).
        assert 0.7 < dy / dx < 1.3

    def test_diffy_invalid_axis(self):
        with pytest.raises(ValueError):
            DiffyModel(axis="t")

    @pytest.mark.parametrize("model", [DiffyModel, ValuePredictionModel])
    def test_axis_uses_the_shared_rule(self, model):
        with pytest.raises(ValueError, match=r"axis must be one of \['x', 'y'\], got 't'"):
            model(axis="t")

    def test_sync_models_ordering(self, dncnn_trace):
        layer = dncnn_trace[3]
        results = {}
        for sync in ("row", "lane", "column", "pallet"):
            cfg = dataclasses.replace(PRA_CONFIG, sync=sync)
            results[sync] = PRAModel(cfg).layer_cycles(layer).cycles
        # More synchronization -> more cycles.
        assert results["row"] <= results["lane"]
        assert results["column"] <= results["pallet"]
        assert results["lane"] <= results["pallet"]

    def test_t1_closes_sync_gap(self, dncnn_trace):
        """Fig 16: T_1 eliminates cross-lane stalls, so Diffy's speedup over
        an equally scaled VAA grows."""
        layer = dncnn_trace[5]
        v16 = VAAModel().layer_cycles(layer).cycles
        d16 = DiffyModel().layer_cycles(layer).cycles
        v1 = VAAModel(VAA_CONFIG.with_terms(1)).layer_cycles(layer).cycles
        d1 = DiffyModel(DIFFY_CONFIG.with_terms(1)).layer_cycles(layer).cycles
        assert v1 / d1 > v16 / d16

    def test_utilization_bounded(self, dncnn_trace):
        for layer in dncnn_trace:
            rec = DiffyModel().layer_cycles(layer)
            assert 0.0 <= rec.utilization <= 1.0
            assert 0.0 <= rec.lane_occupancy <= 1.0


class TestSCNN:
    def test_dense_weights_speedup_from_act_sparsity(self, dncnn_trace):
        layer = dncnn_trace[3]
        vaa = VAAModel().layer_cycles(layer).cycles
        scnn = SCNNModel().layer_cycles(layer).cycles
        assert scnn < vaa  # activation sparsity alone helps

    def test_weight_sparsity_reduces_cycles(self, dncnn_trace):
        layer = dncnn_trace[3]
        dense = SCNNModel(0.0).layer_cycles(layer).cycles
        half = SCNNModel(0.5).layer_cycles(layer).cycles
        ninety = SCNNModel(0.9).layer_cycles(layer).cycles
        assert ninety < half < dense

    def test_names(self):
        assert SCNNModel(0.0).name == "SCNN"
        assert SCNNModel(0.5).name == "SCNN50"
        assert SCNNModel(0.75).name == "SCNN75"

    def test_sparsity_validated(self):
        with pytest.raises(ValueError):
            SCNNModel(1.0)
