"""Spatial-correlation heatmaps (Fig 2).

Fig 2 visualizes, for one intermediate DnCNN layer on the Barbara image:
(a) the raw imap values, (b) the adjacent-along-X deltas ("it is only
around the edges that deltas peak"), and (c) the per-activation reduction
in effectual terms when the omap is computed differentially.

This module computes the underlying arrays plus the caption statistics
(average terms per activation and per delta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.booth import WORD_BITS, booth_terms
from repro.core.deltas import spatial_deltas
from repro.nn.trace import ConvLayerTrace
from repro.utils.bits import quantize_to_width


@dataclass(frozen=True)
class HeatmapData:
    """Arrays behind Fig 2 for one layer (channel-averaged, 2D).

    Attributes
    ----------
    raw:
        Mean |activation| per pixel across channels (Fig 2a).
    delta:
        Mean |delta| per pixel across channels (Fig 2b).
    term_reduction:
        Mean per-pixel reduction in effectual terms, raw minus delta
        (Fig 2c); positive where differential processing saves work,
        negative at hard edges where deltas cost extra terms.
    mean_terms_raw, mean_terms_delta:
        The caption statistics (3.65 and 1.9 in the paper's example).
    """

    raw: np.ndarray
    delta: np.ndarray
    term_reduction: np.ndarray
    mean_terms_raw: float
    mean_terms_delta: float

    @property
    def potential_work_reduction(self) -> float:
        """Raw/delta mean-term ratio ("potential to reduce work by 1.9x")."""
        if self.mean_terms_delta <= 0:
            return float("inf")
        return self.mean_terms_raw / self.mean_terms_delta


def heatmap_data(layer: ConvLayerTrace, axis: str = "x") -> HeatmapData:
    """Compute Fig 2's heatmaps for one traced layer.

    The differential scheme matches the paper's: the first window along
    each row is computed from raw values, all subsequent ones from deltas —
    so the delta/term maps keep raw statistics in their first column.
    """
    imap = layer.imap
    deltas = spatial_deltas(imap, axis=axis)
    terms_raw = booth_terms(imap)
    terms_delta = booth_terms(quantize_to_width(deltas, WORD_BITS)[0])
    return HeatmapData(
        # |-32768| does not fit int16: take magnitudes at int64.
        raw=np.abs(imap, dtype=np.int64).mean(axis=0),
        delta=np.abs(deltas).mean(axis=0),
        # Term maps are uint8: subtract signed, where delta may exceed raw.
        term_reduction=np.subtract(terms_raw, terms_delta, dtype=np.float64).mean(axis=0),
        mean_terms_raw=float(terms_raw.mean()),
        mean_terms_delta=float(terms_delta.mean()),
    )
