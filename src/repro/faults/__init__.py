"""Deterministic fault injection for Diffy's storage formats.

The paper's DeltaD16 storage scheme trades per-value independence for
footprint: activations live on- and off-chip as per-group dynamically
sized *deltas*, so a single stored-bit error is no longer confined to one
activation — differential reconstruction accumulates it across the rest
of the row.  This package quantifies that trade-off:

- :mod:`repro.faults.models` — seeded fault models (single/multi
  bit-flip, stuck-at-0/1, burst) over bit streams;
- :mod:`repro.faults.inject` — site-level injectors for storage words,
  packed codec streams and decoded delta maps, plus
  :func:`~repro.faults.inject.corrupt_protected_read`, the one injector
  into stored maps (:mod:`repro.protect.stream`; Raw16 is the
  ``keyframe_interval=1`` map);
- :mod:`repro.faults.metrics` — end-to-end corruption metrics
  (corrupted values, error-run lengths, max error, PSNR);
- :mod:`repro.faults.campaign` — the rate × site × scheme campaign
  runner behind the ``ext_faults`` experiment, plus the
  protected-vs-unprotected variants (:mod:`repro.protect`) behind
  ``ext_protection``.
"""

from repro.faults.campaign import (
    PROTECTED_CONFIGS,
    SCHEME_SITES,
    CampaignPoint,
    CampaignRow,
    ProtectedPoint,
    ProtectedRow,
    campaign_grid,
    run_campaign,
    run_length_amplification,
    run_protected_campaign,
)
from repro.faults.inject import (
    corrupt_protected_read,
    inject_deltas,
    inject_encoded,
    inject_words,
)
from repro.faults.metrics import (
    CorruptionMetrics,
    ErrorAccumulator,
    corruption_metrics,
    error_runs,
)
from repro.faults.models import (
    FAULT_MODELS,
    BitFlip,
    Burst,
    FaultModel,
    StuckAt,
    fault_model,
)

__all__ = [
    "PROTECTED_CONFIGS",
    "SCHEME_SITES",
    "CampaignPoint",
    "CampaignRow",
    "ProtectedPoint",
    "ProtectedRow",
    "campaign_grid",
    "run_campaign",
    "run_length_amplification",
    "run_protected_campaign",
    "corrupt_protected_read",
    "inject_deltas",
    "inject_encoded",
    "inject_words",
    "CorruptionMetrics",
    "ErrorAccumulator",
    "corruption_metrics",
    "error_runs",
    "FAULT_MODELS",
    "BitFlip",
    "Burst",
    "FaultModel",
    "StuckAt",
    "fault_model",
]
