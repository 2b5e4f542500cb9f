"""Off-chip traffic accounting (Fig 14, and the stall model's input).

Under the paper's dataflow (Section III-F) each layer streams:

- its imap from off-chip, once (compressed under the active scheme),
- its omap to off-chip, once (compressed),
- its filters, once (16-bit dense by default; the activation schemes the
  paper studies leave weights untouched, so ``network_traffic`` prices
  them dense unless a ``weight_scheme`` is named).

Per-layer bytes are measured bits-per-value on traced crops scaled to the
target resolution.  Fig 14 normalizes the total against NoCompression.
``composed_traffic`` extends the ladder with weight schemes from
``repro.weights`` — "DeltaD16+MSR4W"-style cells normalized against the
dense NoCompression+Raw16W corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.compression.footprint import (
    imap_precisions,
    layer_bits_per_value,
    omap_precisions,
)
from repro.compression.schemes import CompressionScheme, scheme as get_scheme
from repro.nn.network import Network
from repro.nn.shapes import conv_layer_shapes
from repro.nn.trace import ActivationTrace


@dataclass(frozen=True)
class LayerTraffic:
    """Off-chip bytes moved for one layer at the target resolution."""

    name: str
    index: int
    imap_bytes: float
    omap_bytes: float
    weight_bytes: float

    @property
    def activation_bytes(self) -> float:
        return self.imap_bytes + self.omap_bytes

    @property
    def total_bytes(self) -> float:
        return self.imap_bytes + self.omap_bytes + self.weight_bytes


def network_traffic(
    network: Network,
    traces: Sequence[ActivationTrace],
    compression: CompressionScheme | str,
    height: int,
    width: int,
    precisions: Optional[Sequence[int]] = None,
    omap_precs: Optional[Sequence[int]] = None,
    weight_scheme: Optional[str] = None,
) -> list[LayerTraffic]:
    """Per-layer off-chip traffic under ``compression`` at (H, W).

    ``weight_scheme`` names a ``repro.weights`` scheme to price the filter
    stream under; the default (``None``) keeps the dense 16-bit filters
    every existing caller and golden prices, byte for byte.
    """
    if isinstance(compression, str):
        compression = get_scheme(compression)
    if not traces:
        raise ValueError("need at least one trace")
    if precisions is None:
        precisions = imap_precisions(traces)
    if omap_precs is None:
        omap_precs = omap_precisions(traces)
    shapes = conv_layer_shapes(network, height, width)
    if len(shapes) != len(traces[0]):
        raise ValueError("shape walk and trace layer counts disagree")
    if weight_scheme is None:
        weight_bits = None
    else:
        from repro.weights.schemes import network_weight_bits

        weight_bits = network_weight_bits(network, weight_scheme)
    out = []
    for shp in shapes:
        bpv_in = layer_bits_per_value(traces, shp.index, compression, precisions, "imap")
        bpv_out = layer_bits_per_value(traces, shp.index, compression, omap_precs, "omap")
        if weight_bits is None:
            w_bytes = float(shp.weight_bytes)
        else:
            w_bytes = weight_bits[shp.name] / 8.0
        out.append(
            LayerTraffic(
                name=shp.name,
                index=shp.index,
                imap_bytes=bpv_in * shp.imap_values / 8.0,
                omap_bytes=bpv_out * shp.omap_values / 8.0,
                weight_bytes=w_bytes,
            )
        )
    return out


def normalized_traffic(
    network: Network,
    traces: Sequence[ActivationTrace],
    scheme_names: Sequence[str],
    height: int,
    width: int,
) -> dict[str, float]:
    """Fig 14: total off-chip traffic per scheme, normalized to NoCompression."""
    precisions = imap_precisions(traces)
    omap_precs = omap_precisions(traces)

    def total(name: str) -> float:
        layers = network_traffic(
            network, traces, name, height, width, precisions, omap_precs
        )
        return sum(layer.total_bytes for layer in layers)

    baseline = total("NoCompression")
    return {name: total(name) / baseline for name in scheme_names}


def composed_traffic(
    network: Network,
    traces: Sequence[ActivationTrace],
    pairs: Sequence[tuple[str, str]],
    height: int,
    width: int,
) -> dict[str, float]:
    """Fig 14 extended with the weight axis.

    Each ``(activation_scheme, weight_scheme)`` pair prices imap/omap
    streams under the activation scheme and the filter stream under the
    weight scheme, normalized against the dense NoCompression+Raw16W
    corner (the exact total the activation-only ladder calls baseline).
    Keys read "DeltaD16+MSR4W".
    """
    precisions = imap_precisions(traces)
    omap_precs = omap_precisions(traces)

    def total(act: str, wgt: str) -> float:
        layers = network_traffic(
            network,
            traces,
            act,
            height,
            width,
            precisions,
            omap_precs,
            weight_scheme=wgt,
        )
        return sum(layer.total_bytes for layer in layers)

    baseline = total("NoCompression", "Raw16W")
    return {f"{act}+{wgt}": total(act, wgt) / baseline for act, wgt in pairs}
