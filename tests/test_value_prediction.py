"""Value-prediction engine: degenerate cases pin the speculative model
to the PRA baseline it wraps — disabled is byte-identical, an all-miss
trace pays the full recovery toll, and the tradeoff is monotone."""

import numpy as np
import pytest

from repro.arch.predict import ValuePredictionModel
from repro.arch.sim import model_for
from repro.arch.term_maps import vp_term_map
from repro.nn.trace import ConvLayerTrace


def _layer(imap, kernel=3, stride=1, padding=0, relu=True):
    """A trace layer around a constructed imap; omap shape follows the
    conv geometry (its values are irrelevant to term pricing)."""
    c, h, w = imap.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return ConvLayerTrace(
        name="probe",
        index=0,
        imap=np.asarray(imap, dtype=np.int64),
        imap_scale=0,
        omap=np.zeros((3, oh, ow), dtype=np.int64),
        omap_scale=0,
        out_channels=3,
        kernel=kernel,
        stride=stride,
        padding=padding,
        dilation=1,
        relu=relu,
    )


@pytest.fixture(scope="module")
def ramp_layer():
    """Strictly increasing along x with step 37 and *zero padding*, so
    every spatial delta exceeds any small threshold: an all-miss trace.
    (With padding > 0 the zero borders would produce trivial 0->0 hits.)"""
    imap = np.cumsum(np.full((2, 6, 6), 37, dtype=np.int64), axis=2)
    return _layer(imap, padding=0)


@pytest.fixture(scope="module")
def flat_layer():
    """Constant imap: every predictable position is a perfect hit."""
    return _layer(np.full((2, 6, 6), 21, dtype=np.int64), padding=0)


class TestDisabledIsPRA:
    def test_byte_identical_layer_cycles(self, dncnn_trace):
        vp = ValuePredictionModel(enabled=False)
        pra = model_for("PRA")
        for layer in dncnn_trace:
            assert vp.layer_cycles(layer) == pra.layer_cycles(layer)

    def test_disabled_stats_are_inert(self, ramp_layer):
        vp = ValuePredictionModel(enabled=False)
        stats = vp.prediction_stats(ramp_layer)
        assert stats == {"hit_fraction": 0.0, "mse": 0.0}


class TestAllMiss:
    def test_every_prediction_misses(self, ramp_layer):
        vp = ValuePredictionModel(threshold=0, recovery_cycles=2)
        assert vp.prediction_stats(ramp_layer)["hit_fraction"] == 0.0

    def test_misses_cost_at_least_the_baseline(self, ramp_layer):
        """100% misprediction: every predicted position pays its raw
        terms plus the recovery bubble, so VP can only be slower."""
        vp = ValuePredictionModel(threshold=0, recovery_cycles=2)
        pra = model_for("PRA")
        assert vp.layer_cycles(ramp_layer).cycles >= pra.layer_cycles(ramp_layer).cycles

    def test_zero_recovery_matches_baseline_on_misses(self, ramp_layer):
        """With a free recovery bubble, an all-miss VP degenerates to PRA."""
        vp = ValuePredictionModel(threshold=0, recovery_cycles=0)
        pra = model_for("PRA")
        assert vp.layer_cycles(ramp_layer).cycles == pra.layer_cycles(ramp_layer).cycles


class TestAllHit:
    def test_flat_map_hits_everywhere(self, flat_layer):
        vp = ValuePredictionModel(threshold=0, recovery_cycles=2)
        stats = vp.prediction_stats(flat_layer)
        assert stats["hit_fraction"] == 1.0
        assert stats["mse"] == 0.0

    def test_hits_never_cost_more_than_baseline(self, flat_layer):
        vp = ValuePredictionModel(threshold=0, recovery_cycles=2)
        pra = model_for("PRA")
        assert vp.layer_cycles(flat_layer).cycles <= pra.layer_cycles(flat_layer).cycles


class TestMonotoneTradeoff:
    def test_hits_and_cycles_monotone_in_threshold(self, dncnn_trace):
        layer = dncnn_trace.layers[1]
        hits, cycles = [], []
        for threshold in (0, 2, 8, 32, 1 << 20):
            vp = ValuePredictionModel(threshold=threshold, recovery_cycles=2)
            hits.append(vp.prediction_stats(layer)["hit_fraction"])
            cycles.append(vp.layer_cycles(layer).cycles)
        assert hits == sorted(hits)
        assert cycles == sorted(cycles, reverse=True)
        # A huge threshold predicts every non-head position.
        assert hits[-1] == 1.0

    def test_term_map_memoized(self, ramp_layer):
        a = vp_term_map(ramp_layer, threshold=3, recovery_cycles=2)
        b = vp_term_map(ramp_layer, threshold=3, recovery_cycles=2)
        assert a is b
        c = vp_term_map(ramp_layer, threshold=4, recovery_cycles=2)
        assert c is not a


class TestRegistration:
    def test_model_for_vp(self):
        model = model_for("VP")
        assert isinstance(model, ValuePredictionModel)
        assert model.name == "VP"

    def test_unknown_engine_lists_vp(self):
        with pytest.raises(ValueError, match="VP"):
            model_for("TPU")

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            ValuePredictionModel(threshold=-1)
        with pytest.raises(ValueError, match="recovery_cycles"):
            ValuePredictionModel(recovery_cycles=-2)
        with pytest.raises(ValueError, match="axis"):
            ValuePredictionModel(axis="z")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("threshold", 1.9),
            ("recovery_cycles", 2.7),
            ("recovery_cycles", float("inf")),
            ("threshold", float("nan")),
            ("threshold", True),
        ],
    )
    def test_non_integer_arguments_fail_by_name(self, field, value, ramp_layer):
        """A fractional count is not truncated into a different operating
        point, and an infinite one fails with a named error."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ValuePredictionModel(**{field: value})
        args = {"threshold": 0, "recovery_cycles": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            vp_term_map(ramp_layer, **args)

    def test_integer_arguments_keep_their_pricing(self, ramp_layer):
        vp = ValuePredictionModel(threshold=np.int64(3), recovery_cycles=np.int32(2))
        assert (vp.threshold, vp.recovery_cycles) == (3, 2)
        assert type(vp.threshold) is int and type(vp.recovery_cycles) is int
        assert vp.term_map(ramp_layer) is vp_term_map(ramp_layer, 3, 2)
