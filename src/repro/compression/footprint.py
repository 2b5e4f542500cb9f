"""Storage footprint accounting (Fig 5 and Table V).

Two quantities:

* **Off-chip footprint** (Fig 5): bits to store all imaps of a network
  under a scheme, normalized to NoCompression.
* **On-chip AM requirement** (Table V): the streaming working set of the
  paper's dataflow — per layer, the imap rows a row of windows reads plus
  an output row being assembled — maximized over layers and models.  Our
  accounting uses the minimal working set (``kernel`` imap rows + 1 omap
  row); the paper's double-buffered variant is a constant factor larger
  and cancels in the scheme-to-scheme ratios Table V is about.

Per-layer bits-per-value are measured on traced crops and scaled to the
target resolution by value count (valid because the models are fully
convolutional; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.compression.schemes import CompressionScheme, scheme as get_scheme
from repro.core.layer_memo import memoized
from repro.core.precision import profiled_precision
from repro.nn.network import Network
from repro.nn.shapes import conv_layer_shapes
from repro.nn.trace import ActivationTrace, ConvLayerTrace


@dataclass(frozen=True)
class LayerFootprint:
    """Measured storage statistics of one layer under one scheme."""

    name: str
    index: int
    values: int
    bits: int

    @property
    def bits_per_value(self) -> float:
        return self.bits / self.values if self.values else 0.0

    @property
    def bytes(self) -> float:
        return self.bits / 8.0


def _check_traces(traces: Sequence[ActivationTrace]) -> int:
    if not traces:
        raise ValueError("need at least one trace")
    n = len(traces[0])
    if any(len(t) != n for t in traces):
        raise ValueError("traces have inconsistent layer counts")
    return n


def _value_range(layer: ConvLayerTrace, which: str) -> tuple:
    """``(min, max)`` of the layer's imap or omap (memoized), ``()`` if empty."""

    def compute() -> tuple:
        fmap = getattr(layer, which)
        return (int(fmap.min()), int(fmap.max())) if fmap.size else ()

    return memoized(layer, ("range", which), compute)


def _precisions(traces: Sequence[ActivationTrace], which: str) -> list[int]:
    n = _check_traces(traces)
    out = []
    for i in range(n):
        # Only the extremes set a lossless width, so fold each layer's
        # memoized range instead of rescanning its map.
        ranges = [_value_range(t[i], which) for t in traces]
        signed = any(r[0] < 0 for r in ranges if r)
        out.append(profiled_precision((np.array(r) for r in ranges), signed=signed))
    return out


def imap_precisions(traces: Sequence[ActivationTrace]) -> list[int]:
    """Profiled per-layer imap precisions over the traces (Table III).

    Covers every traced value losslessly (consistent with the lossless
    dynamic schemes it is compared against).  A layer whose imap is
    empty in every trace raises ``ValueError``.
    """
    return _precisions(traces, "imap")


def omap_precisions(traces: Sequence[ActivationTrace]) -> list[int]:
    """Profiled per-layer omap precisions over the traces."""
    return _precisions(traces, "omap")


def layer_bits_per_value(
    traces: Sequence[ActivationTrace],
    layer_index: int,
    compression: CompressionScheme,
    precisions: Optional[Sequence[int]] = None,
    which: str = "imap",
) -> float:
    """Mean encoded bits/value for one layer's imap or omap across traces.

    Each map's encoded bits are memoized with the map array itself, per
    scheme (:attr:`CompressionScheme.key`) and profiled precision, so
    every engine simulated over the same traces prices them once, and an
    omap that is also the next layer's imap is encoded once.
    """
    if which not in ("imap", "omap"):
        raise ValueError(f"which must be 'imap' or 'omap', got {which!r}")
    _check_traces(traces)
    if precisions is None:
        precisions = _precisions(traces, which)
    precision = precisions[layer_index]
    ratios = []
    for t in traces:
        fmap = getattr(t[layer_index], which)
        if fmap.size == 0:
            raise ValueError("empty feature map")
        bits = memoized(
            fmap,
            ("bits", int(precision), compression.key),
            lambda: compression.encoded_bits(fmap, precision),
        )
        ratios.append(bits / fmap.size)
    return float(np.mean(ratios))


def network_footprint(
    traces: Sequence[ActivationTrace],
    compression: CompressionScheme | str,
    precisions: Optional[Sequence[int]] = None,
) -> list[LayerFootprint]:
    """Per-layer imap footprint at trace resolution (averaged over traces)."""
    if isinstance(compression, str):
        compression = get_scheme(compression)
    n = _check_traces(traces)
    if precisions is None:
        precisions = imap_precisions(traces)
    out = []
    for i in range(n):
        values = int(traces[0][i].imap.size)
        bpv = layer_bits_per_value(traces, i, compression, precisions, "imap")
        out.append(
            LayerFootprint(
                name=traces[0][i].name,
                index=i,
                values=values,
                bits=int(round(bpv * values)),
            )
        )
    return out


def normalized_footprints(
    traces: Sequence[ActivationTrace],
    scheme_names: Sequence[str],
    precisions: Optional[Sequence[int]] = None,
) -> dict[str, float]:
    """Fig 5: total imap footprint per scheme, normalized to NoCompression."""
    if precisions is None:
        precisions = imap_precisions(traces)
    baseline = sum(f.bits for f in network_footprint(traces, "NoCompression", precisions))
    out = {}
    for name in scheme_names:
        total = sum(f.bits for f in network_footprint(traces, name, precisions))
        out[name] = total / baseline
    return out


def composed_footprints(
    network: Network,
    traces: Sequence[ActivationTrace],
    pairs: Sequence[tuple[str, str]],
    precisions: Optional[Sequence[int]] = None,
) -> dict[str, float]:
    """Fig 5 extended with the weight axis.

    Each ``(activation_scheme, weight_scheme)`` pair totals the imap
    footprint under the activation scheme plus the filter storage under
    the ``repro.weights`` scheme, normalized against the dense
    NoCompression+Raw16W corner.  Keys read "DeltaD16+MSR4W".  The
    activation-only :func:`normalized_footprints` ladder is untouched.
    """
    from repro.weights.schemes import network_weight_bits

    if precisions is None:
        precisions = imap_precisions(traces)
    act_totals: dict[str, int] = {}
    wgt_totals: dict[str, int] = {}

    def act_total(name: str) -> int:
        if name not in act_totals:
            act_totals[name] = sum(
                f.bits for f in network_footprint(traces, name, precisions)
            )
        return act_totals[name]

    def wgt_total(name: str) -> int:
        if name not in wgt_totals:
            wgt_totals[name] = sum(network_weight_bits(network, name).values())
        return wgt_totals[name]

    baseline = act_total("NoCompression") + wgt_total("Raw16W")
    return {
        f"{act}+{wgt}": (act_total(act) + wgt_total(wgt)) / baseline
        for act, wgt in pairs
    }


def am_requirement_bytes(
    network: Network,
    traces: Sequence[ActivationTrace],
    compression: CompressionScheme | str,
    height: int,
    width: int,
    precisions: Optional[Sequence[int]] = None,
    omap_precs: Optional[Sequence[int]] = None,
) -> float:
    """Table V: on-chip AM bytes the streaming dataflow needs at (H, W).

    Per layer: ``kernel`` imap rows (the distinct rows one row of windows
    reads) plus one omap row, both at the scheme's measured bits/value;
    the requirement is the maximum over layers.
    """
    if isinstance(compression, str):
        compression = get_scheme(compression)
    _check_traces(traces)
    if precisions is None:
        precisions = imap_precisions(traces)
    if omap_precs is None:
        omap_precs = omap_precisions(traces)
    shapes = conv_layer_shapes(network, height, width)
    if len(shapes) != len(traces[0]):
        raise ValueError("shape walk and trace layer counts disagree")
    worst = 0.0
    for shp in shapes:
        bpv_in = layer_bits_per_value(traces, shp.index, compression, precisions, "imap")
        bpv_out = layer_bits_per_value(traces, shp.index, compression, omap_precs, "omap")
        c_in, _, w_in = shp.imap_shape
        k_out, _, w_out = shp.omap_shape
        imap_rows_bits = shp.kernel * c_in * w_in * bpv_in
        omap_row_bits = k_out * w_out * bpv_out
        worst = max(worst, (imap_rows_bits + omap_row_bits) / 8.0)
    return worst

