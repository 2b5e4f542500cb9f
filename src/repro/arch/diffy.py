"""Diffy: the differential-convolution accelerator (Section III-E).

Diffy is PRA with three additions:

1. the imap arrives (and is stored) as X-axis *deltas*, so the serial
   inner-product units stream the — much smaller — delta term counts;
2. a Differential Reconstruction (DR) engine per SIP cascades the direct
   components across columns to rebuild exact outputs.  Reconstruction
   overlaps the (hundreds of cycles long) processing of the next window
   set, so it adds no cycles — only the energy/area accounted in
   :mod:`repro.arch.energy`;
3. a Delta_out engine per tile re-encodes each output brick as deltas at
   the next layer's stride before it is written back to the AM.

Under the paper's dataflow only the very first window of each row is
computed from raw values; every subsequent window — including column 0 of
later pallets, via round-robin hand-off — is differential.
"""

from __future__ import annotations

from repro.arch.config import AcceleratorConfig, DIFFY_CONFIG
from repro.arch.cycles import LayerCycles, serial_layer_cycles
from repro.arch.term_maps import delta_term_map, raw_term_map
from repro.nn.trace import ConvLayerTrace
from repro.utils.validation import check_axis


class DiffyModel:
    """Cycle model of the Diffy accelerator."""

    name = "Diffy"

    def __init__(self, config: AcceleratorConfig = DIFFY_CONFIG, axis: str = "x"):
        check_axis("axis", axis)
        self.config = config
        self.axis = axis

    def layer_cycles(self, layer: ConvLayerTrace) -> LayerCycles:
        """Cycle accounting with the raw-first-window-of-row dataflow.

        The head window of each chain (leftmost per row for X chains) is
        processed on raw values; its aggregates are computed separately and
        spliced over the delta-based ones, because a head window's *taps*
        overlap positions that later windows consume as deltas.

        Both term maps come from the per-layer lowering memo, so repeated
        evaluations (sweeps, campaigns, serving) execute over one shared
        set of lowered artifacts.
        """
        return serial_layer_cycles(
            layer,
            delta_term_map(layer, axis=self.axis),
            self.config,
            head_term_map=raw_term_map(layer),
            axis=self.axis,
        )
