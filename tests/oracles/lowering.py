"""Padded-imap transcriptions of the per-layer lowering.

:mod:`repro.arch.term_maps` counts the raw map's Booth terms on the
stored imap and zero-pads the counts, differences a padded imap it
drops straight after, and narrows the saturated deltas before the
gather; :func:`repro.serve.latency.temporal_term_map` differences the
stored imaps of two frames; VAA counts the stored imap's nonzeros.  The
functions here do it the direct way: pad the imap first (``int64`` for
the temporal difference), then difference and count, with the LUT
indexed by the word's ``int64`` residue.  Each returns what production
must return byte for byte, dtype included, and adds the same
``precision.values_clipped`` counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.booth import WORD_BITS, term_count_lut
from repro.core.deltas import spatial_deltas
from repro.nn.trace import ConvLayerTrace
from repro.utils.bits import quantize_to_width


def _terms(values: np.ndarray) -> np.ndarray:
    """Booth term count per signed 16-bit value, by its word's residue."""
    return term_count_lut()[np.asarray(values, dtype=np.int64) % (1 << WORD_BITS)]


def raw_term_map(layer: ConvLayerTrace) -> np.ndarray:
    """Term counts of the padded imap."""
    return _terms(layer.padded_imap())


def delta_term_map(layer: ConvLayerTrace, axis: str) -> np.ndarray:
    """Term counts of the padded imap's saturated spatial deltas."""
    deltas = spatial_deltas(layer.padded_imap(), axis=axis, stride=layer.stride)
    return _terms(quantize_to_width(deltas, WORD_BITS)[0])


def vp_term_map(
    layer: ConvLayerTrace, threshold: int, recovery_cycles: int, axis: str
) -> np.ndarray:
    """Charged term counts under value prediction: a hit costs 0, a miss
    its raw terms plus the bubble, a chain head its raw terms."""
    padded = layer.padded_imap()
    raw = raw_term_map(layer)
    deltas = spatial_deltas(padded, axis=axis, stride=layer.stride)
    worst = int(term_count_lut().max()) + recovery_cycles
    out = raw.astype(np.min_scalar_type(worst))
    out += recovery_cycles
    out *= np.abs(deltas) > threshold
    ax = padded.ndim - 1 if axis == "x" else padded.ndim - 2
    head = [slice(None)] * padded.ndim
    head[ax] = slice(0, min(layer.stride, padded.shape[ax]))
    out[tuple(head)] = raw[tuple(head)]
    return out


def temporal_term_map(layer: ConvLayerTrace, previous: ConvLayerTrace) -> np.ndarray:
    """Term counts of the saturated difference of two padded imaps."""
    cur = np.asarray(layer.padded_imap(), dtype=np.int64)
    prev = np.asarray(previous.padded_imap(), dtype=np.int64)
    return _terms(quantize_to_width(cur - prev, WORD_BITS)[0])


def vaa_useful_terms(layer: ConvLayerTrace) -> float:
    """VAA's useful lane work: nonzero padded activations per window tap."""
    padded = layer.padded_imap()
    return float((padded != 0).sum()) * layer.kernel**2 / max(layer.stride**2, 1)
