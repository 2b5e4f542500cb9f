"""VP: a speculative value-prediction engine (Shomron & Weiser).

"Spatial Correlation and Value Prediction in Convolutional Neural
Networks" observes that neighboring activations are strongly correlated:
a predictor that speculates each activation equals its already-decoded
spatial neighbor is right most of the time, so the serial datapath can
skip the predicted activation's term stream entirely and only pay for
mispredictions — the raw term stream plus a fixed pipeline-flush bubble.

This model grafts that speculation onto the PRA substrate: same config,
same serial cycle kernel, but the per-activation term map comes from
:func:`repro.arch.term_maps.vp_term_map`.  ``threshold`` widens the
"close enough" band (0 = exact-match prediction only; larger thresholds
trade output exactness for hit rate — the accuracy → cycle-cost curve
``ext_weights`` pins), ``recovery_cycles`` prices the misprediction
flush, and ``enabled=False`` collapses the engine to plain PRA
byte-identically.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import AcceleratorConfig, PRA_CONFIG
from repro.arch.cycles import LayerCycles, serial_layer_cycles
from repro.arch.term_maps import raw_term_map, vp_term_map
from repro.core.deltas import spatial_deltas
from repro.nn.trace import ConvLayerTrace
from repro.utils.validation import check_axis, check_integer, check_nonnegative

__all__ = ["ValuePredictionModel"]


class ValuePredictionModel:
    """Cycle model of the speculative value-prediction engine."""

    name = "VP"

    def __init__(
        self,
        config: AcceleratorConfig = PRA_CONFIG,
        threshold: int = 0,
        recovery_cycles: int = 2,
        enabled: bool = True,
        axis: str = "x",
    ):
        threshold = check_integer("threshold", threshold)
        check_nonnegative("threshold", threshold)
        recovery_cycles = check_integer("recovery_cycles", recovery_cycles)
        check_nonnegative("recovery_cycles", recovery_cycles)
        check_axis("axis", axis)
        self.config = config
        self.threshold = threshold
        self.recovery_cycles = recovery_cycles
        self.enabled = bool(enabled)
        self.axis = axis

    def term_map(self, layer: ConvLayerTrace) -> np.ndarray:
        """Per-activation charged term counts (speculation applied)."""
        if not self.enabled:
            return raw_term_map(layer)
        return vp_term_map(
            layer, self.threshold, self.recovery_cycles, axis=self.axis
        )

    def layer_cycles(self, layer: ConvLayerTrace) -> LayerCycles:
        return serial_layer_cycles(layer, self.term_map(layer), self.config)

    def prediction_stats(self, layer: ConvLayerTrace) -> "dict[str, float]":
        """Hit fraction and squared error of the speculated values.

        ``hit_fraction`` is over predictable positions only (chain heads
        along ``axis`` have no decoded neighbor and always execute);
        ``mse`` is the mean squared error of the *used* predictions —
        the output-exactness cost the threshold buys its hit rate with
        (0 at ``threshold=0``).
        """
        padded = layer.padded_imap()
        deltas = spatial_deltas(padded, axis=self.axis, stride=layer.stride)
        ax = padded.ndim - 1 if self.axis == "x" else padded.ndim - 2
        predictable = np.ones(padded.shape, dtype=bool)
        head = [slice(None)] * padded.ndim
        head[ax] = slice(0, min(layer.stride, padded.shape[ax]))
        predictable[tuple(head)] = False
        if not self.enabled or not predictable.any():
            return {"hit_fraction": 0.0, "mse": 0.0}
        hit = (np.abs(deltas) <= self.threshold) & predictable
        hits = int(hit.sum())
        err = deltas[hit].astype(np.float64)
        return {
            "hit_fraction": hits / int(predictable.sum()),
            "mse": float(np.mean(err**2)) if hits else 0.0,
        }
