"""PRA: the Bit-Pragmatic value-aware accelerator (Section III-B).

PRA processes activations term-serially: offset generators recode each
activation into its effectual signed powers of two (modified Booth), and
each serial inner-product unit consumes one term per lane per cycle.
Execution time is proportional to the effectual term content of the raw
imap, eroded by cross-lane synchronization (the slowest lane in a sync
group sets the pace) — both of which this model reproduces from the
bit-exact term counts of the trace.
"""

from __future__ import annotations

from repro.arch.config import AcceleratorConfig, PRA_CONFIG
from repro.arch.cycles import LayerCycles, serial_layer_cycles
from repro.arch.term_maps import raw_term_map
from repro.nn.trace import ConvLayerTrace


class PRAModel:
    """Cycle model of the Bit-Pragmatic accelerator."""

    name = "PRA"

    def __init__(self, config: AcceleratorConfig = PRA_CONFIG):
        self.config = config

    def layer_cycles(self, layer: ConvLayerTrace) -> LayerCycles:
        return serial_layer_cycles(layer, raw_term_map(layer), self.config)
