"""SCNN: the sparse-CNN accelerator comparison point (Fig 20).

SCNN [32] computes only *effectual products* — nonzero activation times
nonzero weight — on an 8x8 grid of processing elements, each with a 4x4
cartesian-product multiplier array.  Activations are partitioned spatially
across PEs; every PE streams all weights.

Cycle model (per layer):

- per input channel ``c`` and PE, the front ends deliver nonzero
  activations and weights in vectors of 4, so the PE spends
  ``ceil(nnz_a_pe(c)/4) * ceil(nnz_w(c)/4)`` multiplier cycles on that
  channel (the ceil quantization is SCNN's intra-PE fragmentation),
- the layer completes when the busiest PE does (spatial work imbalance —
  real, measured from the trace's actual nonzero distribution),
- a fixed derate covers accumulator-bank crossbar contention and halo
  overheads (the SCNN paper's reported sustained-throughput loss).

Weight sparsity variants (SCNN50/75/90) magnitude-prune the quantized
filter banks; the paper notes even 50% is optimistic for CI-DNNs.

SCNN compresses activations off-chip with zero run-length encoding, which
Fig 14 shows is nearly ineffective for CI-DNNs — at HD resolutions this
makes SCNN memory-bound, which is why extra weight sparsity yields
diminishing returns against Diffy (Fig 20's 5.4x -> 1.04x progression).
The shared simulation driver applies the RLEz traffic model for SCNN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.cycles import LayerCycles
from repro.nn.trace import ConvLayerTrace
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SCNNConfig:
    """SCNN structural parameters, peak-normalized to the Table IV designs.

    8x8 PEs x (4x4) multipliers = 1024 multiplies/cycle, matching the 1K
    MAC/cycle peak of VAA/PRA/Diffy.
    """

    name: str = "SCNN"
    pe_rows: int = 8
    pe_cols: int = 8
    f_vector: int = 4
    i_vector: int = 4
    frequency_ghz: float = 1.0
    #: Crossbar / accumulator-bank contention and halo derate.
    contention: float = 1.18

    @property
    def pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def multipliers(self) -> int:
        return self.pes * self.f_vector * self.i_vector


DEFAULT_SCNN_CONFIG = SCNNConfig()


def _pe_nonzeros(imap: np.ndarray, pe_rows: int, pe_cols: int) -> np.ndarray:
    """Nonzero activation counts per (PE, channel).

    The imap plane is partitioned into a pe_rows x pe_cols spatial grid
    (ragged edges go to the last row/column of PEs, as in SCNN's planar
    tiling).  Returns an array of shape (pes, C).
    """
    c, h, w = imap.shape
    row_edges = np.linspace(0, h, pe_rows + 1, dtype=np.int64)
    col_edges = np.linspace(0, w, pe_cols + 1, dtype=np.int64)
    counts = np.zeros((pe_rows * pe_cols, c), dtype=np.int64)
    nz = imap != 0
    pe = 0
    for i in range(pe_rows):
        for j in range(pe_cols):
            block = nz[:, row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            counts[pe] = block.sum(axis=(1, 2))
            pe += 1
    return counts


class SCNNModel:
    """Cycle model of SCNN at a given weight sparsity."""

    def __init__(
        self,
        weight_sparsity: float = 0.0,
        config: SCNNConfig = DEFAULT_SCNN_CONFIG,
        seed: int = 0,
    ):
        if not 0.0 <= weight_sparsity < 1.0:
            raise ValueError(f"weight_sparsity must be in [0, 1), got {weight_sparsity}")
        self.weight_sparsity = weight_sparsity
        self.config = config
        self.seed = seed
        self.name = (
            "SCNN"
            if weight_sparsity == 0.0
            else f"SCNN{int(round(weight_sparsity * 100))}"
        )

    def _weight_nnz_per_channel(self, layer: ConvLayerTrace) -> np.ndarray:
        """Nonzero weights per input channel after random sparsification.

        Synthetic dense banks have no zeros; sparsification is modelled on
        the *counts* (exact in expectation, deterministic): each channel
        carries K x k x k weights of which a ``1 - sparsity`` fraction
        survives.
        """
        check_positive("out_channels", layer.out_channels)
        dense = layer.out_channels * layer.kernel * layer.kernel
        surviving = dense * (1.0 - self.weight_sparsity)
        return np.full(layer.in_channels, max(int(round(surviving)), 0), dtype=np.int64)

    def layer_cycles(self, layer: ConvLayerTrace) -> LayerCycles:
        cfg = self.config
        counts = _pe_nonzeros(layer.imap, cfg.pe_rows, cfg.pe_cols)  # (pes, C)
        w_nnz = self._weight_nnz_per_channel(layer)  # (C,)
        act_groups = np.ceil(counts / cfg.i_vector)  # (pes, C)
        w_groups = np.ceil(w_nnz / cfg.f_vector)  # (C,)
        per_pe_cycles = (act_groups * w_groups[None, :]).sum(axis=1)
        cycles = float(per_pe_cycles.max()) * cfg.contention
        useful_products = float((counts.sum(axis=0) * w_nnz).sum())
        capacity = cycles * cfg.multipliers
        _, out_h, out_w = layer.omap_shape
        return LayerCycles(
            name=layer.name,
            index=layer.index,
            cycles=cycles,
            windows=out_h * out_w,
            useful_terms=useful_products,
            lane_capacity=capacity,
            filter_occupancy=1.0,
            channel_occupancy=1.0,
        )
