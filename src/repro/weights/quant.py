"""Symmetric INT8 weight quantization tuned for MSR compaction.

The zoo's synthetic filter banks are Gaussian, so a max-calibrated
power-of-two scale parks the bulk of the distribution far below the
INT8 range and wastes the MSR run.  The calibration here instead picks
the largest power-of-two scale that puts a high quantile of |w| at the
edge of the *compact* (:data:`COMPACT_BITS`-bit) range — the MSR-4
datapath's in-band path — then backs off until the absolute max still
fits signed :data:`WEIGHT_BITS`-bit losslessly (no clipping; the few
outliers ride the compensation list instead).
"""

from __future__ import annotations

import numpy as np

from repro.nn.fixed_point import round_half_away
from repro.nn.layers import MAX_WEIGHT_SCALE
from repro.utils.bits import signed_range

__all__ = [
    "network_int8_weights",
    "quantize_weights_int8",
    "weight_scale_int8",
]

#: Stored weight width, and the MSR-4 in-band width (``8 - 4 + 1``).
WEIGHT_BITS = 8
COMPACT_BITS = 5

#: Quantile of |w| calibrated to fill the compact range.
CALIB_QUANTILE = 0.995


def weight_scale_int8(weights: np.ndarray) -> int:
    """Power-of-two scale (bit shift) for lossless signed INT8 storage.

    Calibrated so the :data:`CALIB_QUANTILE` of |w| fills the
    :data:`COMPACT_BITS` in-band range, backed off until the absolute max
    fits :data:`WEIGHT_BITS` — quantization never clips; out-of-band
    weights are the MSR compensation path's job.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    mags = np.abs(w.reshape(-1))
    if not mags.size or not float(mags.max()):
        return 0
    q = float(np.quantile(mags, CALIB_QUANTILE))
    hi_compact = signed_range(COMPACT_BITS)[1]
    hi_full = signed_range(WEIGHT_BITS)[1]
    scale = int(np.floor(np.log2(hi_compact / max(q, 1e-12))))
    scale = min(scale, MAX_WEIGHT_SCALE)
    max_abs = float(mags.max())
    while scale > 0 and round_half_away(np.array([max_abs * (1 << scale)]))[0] > hi_full:
        scale -= 1
    return max(scale, 0)


def quantize_weights_int8(weights: np.ndarray) -> "tuple[np.ndarray, int]":
    """Quantize float weights to signed INT8, losslessly.

    Returns ``(int_weights, scale)`` with ``int_weights`` flat ``int64``
    in the signed :data:`WEIGHT_BITS` range (asserted, never clipped).
    """
    scale = weight_scale_int8(weights)
    q = round_half_away(np.asarray(weights, dtype=np.float64) * (1 << scale))
    lo, hi = signed_range(WEIGHT_BITS)
    if q.size and (int(q.min()) < lo or int(q.max()) > hi):
        raise AssertionError(
            f"calibrated scale {scale} clips weights to [{q.min()}, {q.max()}]"
        )
    return q.reshape(-1), scale


def network_int8_weights(network) -> "dict[str, tuple[np.ndarray, int]]":
    """Per-conv-layer ``(int_weights, scale)`` for a network's filters."""
    return {
        layer.name: quantize_weights_int8(layer.weights)
        for layer in network.conv_layers
    }
