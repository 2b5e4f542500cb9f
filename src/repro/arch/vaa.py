"""VAA: the value-agnostic baseline accelerator (Section III-A).

A DaDianNao-like data-parallel design: per tile per cycle, 16 inner-product
units each consume one brick of 16 activations against 16 filters — 256
MACs/cycle/tile regardless of the values.  Its cycle count is therefore a
pure function of layer geometry:

    cycles = windows x ceil(C/16) x Hf x Wf x filter_passes

Idle lanes from shallow channel counts (first layers) or few filters (last
layers) waste energy but not cycles — the cycle is spent either way, which
is exactly why value-aware designs beat it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.config import AcceleratorConfig, VAA_CONFIG
from repro.arch.cycles import LayerCycles, filter_passes, geometry_occupancies
from repro.nn.trace import ConvLayerTrace


class VAAModel:
    """Cycle model of the value-agnostic accelerator."""

    name = "VAA"

    def __init__(self, config: AcceleratorConfig = VAA_CONFIG):
        self.config = config

    def layer_cycles(self, layer: ConvLayerTrace) -> LayerCycles:
        """Value-independent cycle count for one traced layer."""
        cfg = self.config
        k_out, out_h, out_w = layer.omap_shape
        bricks = math.ceil(layer.in_channels / cfg.terms_per_filter)
        steps = bricks * layer.kernel * layer.kernel
        passes = filter_passes(k_out, cfg)
        windows = out_h * out_w
        base = float(windows) * steps
        cycles = base * passes
        filter_occ, channel_occ = geometry_occupancies(layer, cfg)
        # "Useful work" for VAA's utilization view counts nonzero-activation
        # lanes; VAA spends the lane-cycle regardless.  The zero padding
        # adds none, so the stored imap's count is the padded map's.
        nonzero = np.count_nonzero(layer.imap)
        useful = float(nonzero) * layer.kernel**2 / max(layer.stride**2, 1)
        return LayerCycles(
            name=layer.name,
            index=layer.index,
            cycles=cycles,
            windows=windows,
            useful_terms=useful,
            lane_capacity=base * cfg.terms_per_filter * cfg.windows_per_tile,
            filter_occupancy=filter_occ,
            channel_occupancy=channel_occ,
        )
