"""The paper's primary contribution: differential convolution machinery.

- :mod:`repro.core.booth`        — modified-Booth / signed power-of-two
  recoding and effectual-term counting (what PRA's offset generators do),
- :mod:`repro.core.deltas`       — spatial delta transform of feature maps
  and its exact inverse (what Delta_out computes and DR undoes),
- :mod:`repro.core.differential` — differential convolution itself (Eq 4),
  bit-exact against direct convolution,
- :mod:`repro.core.precision`    — profiled per-layer precisions (Table III)
  and dynamic per-group precision detection (Dynamic Stripes style),
- :mod:`repro.core.dataflow`     — brick/pallet geometry shared by the
  accelerator models,
- :mod:`repro.core.layer_memo`   — the per-trace-layer memo the lowering
  stage and the compression pricing share.
"""

from repro.core.booth import (
    booth_terms,
    naf_digits,
    r4_booth_digits,
    term_count_lut,
)
from repro.core.deltas import spatial_deltas, reconstruct_from_deltas
from repro.core.differential import differential_conv2d
from repro.core.precision import (
    profiled_precision,
    group_precisions,
    GroupPrecisionEncoding,
)
from repro.core.temporal import (
    temporal_deltas,
    FrameSequenceTrace,
    LayerModeStats,
)
from repro.core.dataflow import BRICK_SIZE, PALLET_SIZE

__all__ = [
    "booth_terms",
    "naf_digits",
    "r4_booth_digits",
    "term_count_lut",
    "spatial_deltas",
    "reconstruct_from_deltas",
    "differential_conv2d",
    "profiled_precision",
    "group_precisions",
    "GroupPrecisionEncoding",
    "temporal_deltas",
    "FrameSequenceTrace",
    "LayerModeStats",
    "BRICK_SIZE",
    "PALLET_SIZE",
]
