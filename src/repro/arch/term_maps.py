"""Per-layer lowering: memoized Booth term maps and group geometry.

PRA streams the *raw* imap's effectual terms; Diffy streams the *delta*
imap's — but Diffy's raw-first-window-of-row dataflow also needs the raw
term map for the head windows, and :func:`repro.arch.sim.simulate_network`
evaluates the same traces once per (accelerator, scheme) combination.
Without memoization each evaluation re-pads the multi-megabyte imap and
re-indexes the 65536-entry term LUT over it; with it, each distinct
``(layer, kind)`` artifact is computed exactly once per trace
lifetime.

Every term map is ``uint8`` (:func:`repro.core.booth.booth_terms`): one
byte per padded activation, the largest per-layer arrays the memo holds.
The VP map widens only if ``recovery_cycles`` pushes a miss past 255.
The cycle kernels in :mod:`repro.arch.cycles` widen as they sum.

The module realizes the calibrater-style split the cycle models are built
on: a one-time per-layer **lowering** stage (zero-padded imap, spatial
deltas, Booth term LUT gathers, per-group precision geometry — everything
that is a pure function of the trace) feeding a per-frame **execute**
stage that is pure array arithmetic over the lowered artifacts.  Each
accessor here resolves through the shared memo, so every model
evaluating the same layer — PRA's raw stream, Diffy's delta stream and
raw head windows, the serve layer's temporal pricing — reuses one set
of arrays.

The memo itself lives in :mod:`repro.core.layer_memo`, keyed by layer
identity and evicted with the layer; :func:`repro.arch.sim.simulate_network`
reads the same memo for each layer's cycle record under each engine (and
for its per-trace-set records), and :mod:`repro.compression.footprint`
for each layer's value range and each map's encoded bits.
:func:`lowering_stats` reports how often the expensive computes actually
ran versus being served from that memo, cycle-record, trace-set and
compression lookups included; both are ``arch.lowering.*`` counters in
the :mod:`repro.utils.timing` registry.
"""

from __future__ import annotations

import numpy as np

from repro.core.booth import WORD_BITS, booth_terms, term_count_lut
from repro.core.deltas import spatial_deltas
from repro.core.layer_memo import memoized
from repro.core.precision import GroupPrecisionEncoding, group_precisions
from repro.nn.trace import ConvLayerTrace
from repro.utils import timing
from repro.utils.bits import quantize_to_width
from repro.utils.validation import check_integer, check_nonnegative

__all__ = [
    "lowering_stats",
    "reset_lowering_stats",
    "padded_imap",
    "raw_term_map",
    "delta_term_map",
    "vp_term_map",
    "group_geometry",
]


def lowering_stats() -> "dict[str, int]":
    """Lowering-stage computes (the expensive one-time stage) vs memo
    reuses (hits handed to a per-frame execute step)."""
    counts = timing.counter_values("arch.lowering.")
    return {k: counts.get(f"arch.lowering.{k}", 0) for k in ("computed", "reused")}


def reset_lowering_stats() -> None:
    """Zero the lowering counters (tests, repeated measurements)."""
    timing.reset("arch.lowering.")


def padded_imap(layer: ConvLayerTrace) -> np.ndarray:
    """The layer's zero-padded imap (memoized, read-only)."""
    return memoized(layer, ("padded",), layer.padded_imap)


def raw_term_map(layer: ConvLayerTrace) -> np.ndarray:
    """Per-activation effectual-term counts of the padded raw imap."""
    return memoized(layer, ("raw",), lambda: booth_terms(padded_imap(layer)))


def delta_term_map(layer: ConvLayerTrace, axis: str = "x") -> np.ndarray:
    """Term counts of the spatial-delta imap (Diffy's stream).

    Deltas of adjacent 16-bit values can transiently need 17 bits; the
    hardware's delta datapath is one bit wider internally, but the Booth
    recoder works on 16-bit storage words, so values saturate — post-ReLU
    maps never hit this in practice.
    """

    def compute() -> np.ndarray:
        deltas = spatial_deltas(padded_imap(layer), axis=axis, stride=layer.stride)
        return booth_terms(quantize_to_width(deltas, WORD_BITS)[0])

    return memoized(layer, ("delta", axis), compute)


def vp_term_map(
    layer: ConvLayerTrace,
    threshold: int,
    recovery_cycles: int,
    axis: str = "x",
) -> np.ndarray:
    """Term counts under speculative value prediction (Shomron & Weiser).

    The predictor guesses each activation equals its decoded spatial
    neighbor (``stride`` positions back along ``axis``).  A *hit*
    (|delta| <= ``threshold``) skips the serial term stream entirely — 0
    cycles charged.  A *miss* flushes the speculated zero-work slot and
    recomputes: the raw term stream plus a ``recovery_cycles`` pipeline
    bubble.  Chain heads (the first ``stride`` positions along ``axis``)
    have no decoded neighbor to predict from, so they stream their raw
    terms with no bubble — exactly PRA's cost.  With prediction disabled
    (see :class:`repro.arch.predict.ValuePredictionModel`) every position
    streams raw terms and the map degenerates to :func:`raw_term_map`.
    """
    threshold = check_integer("threshold", threshold)
    check_nonnegative("threshold", threshold)
    recovery = check_integer("recovery_cycles", recovery_cycles)
    check_nonnegative("recovery_cycles", recovery)

    def compute() -> np.ndarray:
        padded = padded_imap(layer)
        raw = raw_term_map(layer)
        deltas = spatial_deltas(padded, axis=axis, stride=layer.stride)
        # The narrowest unsigned dtype holding the costliest miss.
        worst = int(term_count_lut().max()) + recovery
        out = raw.astype(np.min_scalar_type(worst))
        out += recovery
        out *= np.abs(deltas) > threshold  # a hit costs nothing
        ax = padded.ndim - 1 if axis == "x" else padded.ndim - 2
        head = [slice(None)] * padded.ndim
        head[ax] = slice(0, min(layer.stride, padded.shape[ax]))
        out[tuple(head)] = raw[tuple(head)]
        return out

    return memoized(layer, ("vp", axis, threshold, recovery), compute)


def group_geometry(
    layer: ConvLayerTrace, group_size: int = 16, signed: bool = False
) -> GroupPrecisionEncoding:
    """Per-group precision geometry of the layer's imap (memoized).

    The dynamic-precision group widths of the stored imap, computed once
    per ``(group_size, signed)`` and shared by every view of the layer.
    """
    return memoized(
        layer,
        ("geometry", group_size, signed),
        lambda: group_precisions(layer.imap, group_size, signed=signed),
    )
