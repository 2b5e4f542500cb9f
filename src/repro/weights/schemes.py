"""Weight storage schemes, composable with the activation schemes.

Mirrors ``repro.compression.schemes``' registry shape on the weight
axis: ``Raw16W`` is the dense 16-bit baseline every existing ladder
already prices (``LayerShape.weight_bytes``), ``Raw8W`` the calibrated
INT8 layout, and ``MSR4W`` the MSR-compacted INT8 stream.  Pricing is
exact — ``MSR4W`` accounts via the codec's per-column layout, not a
ratio estimate — so the Fig 5/Fig 14 composed ladders agree to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.weights.msr import MSRCodec
from repro.weights.quant import network_int8_weights

__all__ = [
    "WEIGHT_SCHEMES",
    "WeightScheme",
    "network_weight_bits",
    "weight_scheme",
]


class WeightScheme:
    """Prices a layer's quantized weight stream in storage bits."""

    name = "weight-scheme"

    def encoded_bits(self, int_weights: np.ndarray) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}({self.name!r})"


class RawWeights(WeightScheme):
    """Uncompressed fixed-width storage (``Raw16W`` dense baseline, ``Raw8W``)."""

    def __init__(self, width: int):
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        self.width = int(width)
        self.name = f"Raw{width}W"

    def encoded_bits(self, int_weights: np.ndarray) -> int:
        return int(np.asarray(int_weights).size) * self.width


class MSRWeights(WeightScheme):
    """MSR-compacted INT8 storage (the ``MSR4W`` design point)."""

    name = "MSR4W"

    def __init__(self):
        self.codec = MSRCodec(bits=8, max_msr=4, column_size=256)

    def encoded_bits(self, int_weights: np.ndarray) -> int:
        return self.codec.encoded_bits(np.asarray(int_weights, dtype=np.int64))


WEIGHT_SCHEMES: "tuple[WeightScheme, ...]" = (
    RawWeights(16),
    RawWeights(8),
    MSRWeights(),
)


def weight_scheme(name: str) -> WeightScheme:
    """Look up a weight scheme by name (``Raw16W``, ``Raw8W``, ``MSR4W``)."""
    for scheme in WEIGHT_SCHEMES:
        if scheme.name == name:
            return scheme
    available = ", ".join(sorted(s.name for s in WEIGHT_SCHEMES))
    raise KeyError(f"unknown weight scheme {name!r}; available: {available}")


def network_weight_bits(network, scheme_name: str) -> "dict[str, int]":
    """Per-conv-layer encoded weight bits under a named scheme.

    ``Raw16W`` totals exactly match the dense ``LayerShape.weight_bytes``
    baseline the activation-only ladders already charge.
    """
    scheme = weight_scheme(scheme_name)
    return {
        name: scheme.encoded_bits(int_w)
        for name, (int_w, _scale) in network_int8_weights(network).items()
    }

