"""Activation traces: the interface between inference and the simulators.

Running a network in integer mode produces an :class:`ActivationTrace` — a
per-convolution-layer record of the exact 16-bit fixed-point input feature
map (*imap*), output feature map (*omap*), and the layer geometry.  Every
measurement in the paper (entropy, term counts, precisions, compression,
cycle counts) is a function of these traces.

Maps are stored at their true width — ``int16``, or ``int32`` for a map
with a value outside 16 bits — and where one convolution feeds the next
directly, the next layer's imap *is* the previous layer's omap array, a
sharing that survives pickling.  Because one array can belong to two
layers (and to their memoized lowering artifacts), every map is
read-only, at construction and again after unpickling.  Kernels that
compute on the maps widen only where their arithmetic needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


@dataclass
class ConvLayerTrace:
    """Exact record of one convolution layer's execution.

    Attributes
    ----------
    name:
        Layer name within the network.
    index:
        Zero-based convolution-layer index (matching Table III ordering).
    imap, imap_scale:
        Input feature map as read-only integers (C, H, W) and its
        fixed-point scale.  This is what the accelerator reads from AM.
    omap, omap_scale:
        Post-activation output feature map (K, Ho, Wo) and scale.  This is
        what Delta_out writes back to AM (and what the next layer reads:
        often the very same array).
    out_channels, kernel, stride, padding, dilation, relu:
        Layer geometry.
    """

    name: str
    index: int
    imap: np.ndarray
    imap_scale: int
    omap: np.ndarray
    omap_scale: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    dilation: int
    relu: bool

    def __post_init__(self) -> None:
        self._freeze_maps()

    def __setstate__(self, state: dict) -> None:
        # Pickle restores arrays writeable; shared maps must not be.
        self.__dict__.update(state)
        self._freeze_maps()

    def _freeze_maps(self) -> None:
        for name in ("imap", "omap"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            setattr(self, name, arr)

    @property
    def in_channels(self) -> int:
        return int(self.imap.shape[0])

    @property
    def imap_shape(self) -> tuple[int, int, int]:
        return tuple(self.imap.shape)  # type: ignore[return-value]

    @property
    def omap_shape(self) -> tuple[int, int, int]:
        return tuple(self.omap.shape)  # type: ignore[return-value]

    @property
    def windows(self) -> int:
        """Number of output spatial positions (windows applied)."""
        return int(self.omap.shape[1] * self.omap.shape[2])

    @property
    def macs(self) -> int:
        """Total multiply-accumulates for the layer (dense, zero-padded)."""
        return self.windows * self.out_channels * self.in_channels * self.kernel**2

    def padded_imap(self) -> np.ndarray:
        """The imap with the layer's zero padding applied."""
        p = self.padding
        if p == 0:
            return self.imap
        return np.pad(self.imap, ((0, 0), (p, p), (p, p)))


@dataclass
class ActivationTrace:
    """Per-layer trace of one network inference on one input."""

    network: str
    input_shape: tuple[int, int, int]
    input_scale: int
    layers: list[ConvLayerTrace] = field(default_factory=list)

    def __iter__(self) -> Iterator[ConvLayerTrace]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> ConvLayerTrace:
        return self.layers[idx]

    def layer_named(self, name: str) -> ConvLayerTrace:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no conv layer named {name!r} in trace of {self.network}")
