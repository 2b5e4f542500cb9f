"""Extension experiment: error resilience of delta storage (fault campaign).

The paper's Table V / Fig 14 storage win comes from shipping activations
as per-group dynamically-sized deltas (DeltaD16).  This experiment
quantifies the reliability cost that the paper never discusses: a bit
error in a stored delta is accumulated by differential reconstruction
into every downstream value of its row, while raw 16-bit storage confines
the same error to a single activation.

The campaign (:mod:`repro.faults`) stores real traced activation maps
under Raw16 / RawD16 / DeltaD16, injects seeded faults (bit flips and
bursts, swept over per-bit rates) at the matching sites — memory words,
packed streams before decode, decoded deltas before reconstruction — and
reports corruption metrics per grid point plus the headline
*run-length amplification*: how much longer corruption streaks become
under delta storage at equal raw bit-error rates.

Raw16 words and the DeltaD16 stream are stored and read back through the
protected-storage path (:mod:`repro.protect.stream`, no protection
enabled; Raw16 is its ``keyframe_interval=1`` layout) and corrupted by
:func:`repro.faults.inject.corrupt_protected_read`, the same injector
the ``ext_protection`` and ``ext_chaos`` studies use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import traces_for
from repro.experiments.profiles import Profile, resolve_profile
from repro.faults.campaign import (
    DEFAULT_FAULT_MODELS,
    DEFAULT_RATES,
    CampaignRow,
    run_campaign,
    run_length_amplification,
)

#: Channels kept per traced map — keeps codec round trips cheap while the
#: row statistics (the part faults interact with) stay those of real maps.
MAP_CHANNELS = 8

#: Conv-layer omaps sampled from the trace (early / deep feature maps).
LAYER_PICKS = (0, 3)


@dataclass(frozen=True)
class FaultStudyResult:
    """The campaign output for one model, as pinned by the goldens."""

    model: str
    crop: int
    layers: tuple[int, ...]
    map_channels: int
    #: Total activation values per stored map set.
    stored_values: int
    rows: tuple[CampaignRow, ...]
    #: mean-run-length ratio DeltaD16(delta site) / Raw16(memory site),
    #: keyed by "faultmodel@rate".
    amplification: dict

    __golden_properties__ = ("min_amplification",)

    @property
    def min_amplification(self) -> float:
        """Worst-case (smallest) run-length amplification across the grid."""
        if not self.amplification:
            return 0.0
        return min(self.amplification.values())


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    rates: tuple = DEFAULT_RATES,
    trials: int = 2,
) -> FaultStudyResult:
    """Trace ``model`` and run the fault campaign on sampled omaps."""
    traces = traces_for(model, count=1, crop=crop, seed=seed)
    trace = traces[0]
    layers = tuple(i for i in LAYER_PICKS if i < len(trace))
    fmaps = [np.asarray(trace[i].omap[:MAP_CHANNELS], dtype=np.int64) for i in layers]
    rows = run_campaign(
        fmaps,
        schemes=("Raw16", "RawD16", "DeltaD16"),
        sites=("memory", "stream", "delta"),
        rates=rates,
        fault_models=DEFAULT_FAULT_MODELS,
        trials=trials,
        seed=seed,
    )
    return FaultStudyResult(
        model=model,
        crop=crop,
        layers=layers,
        map_channels=MAP_CHANNELS,
        stored_values=int(sum(f.size for f in fmaps)),
        rows=tuple(rows),
        amplification=run_length_amplification(rows),
    )


def compute(profile: "Profile | None" = None) -> FaultStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).one_model_kwargs(64))
