"""Extension experiment: error protection & recovery for delta storage.

``ext_faults`` measures the reliability cost of DeltaD16 — unbounded
error-run amplification.  This experiment measures what it costs to buy
that reliability back (:mod:`repro.protect`):

- **Headline grid** — protected-vs-unprotected variants of the paper's
  two storage schemes (Raw16 ± SECDED; DeltaD16 under the stock
  protection policies) across fault models and per-bit rates, reporting
  corrected / detected / silent counts, residual PSNR, and storage
  overhead.
- **Keyframe tradeoff curve** — error-run length and PSNR versus the
  keyframe interval K, with anchor ECC on and off.  K interpolates
  between DeltaD16 (K=∞, smallest, unbounded runs) and Raw16 (K=1,
  largest, runs of 1); with ECC-protected anchors the measured run
  length is bounded by K.
- **Protected footprints/traffic** — the Fig 5 / Fig 14 comparisons with
  the protected schemes (``Raw16-ECC``, ``DeltaD16-P``) alongside the
  paper's, pricing the ladder in the paper's own currency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.footprint import normalized_footprints
from repro.compression.traffic import normalized_traffic
from repro.experiments.common import traces_for
from repro.experiments.profiles import Profile, resolve_profile
from repro.faults.campaign import (
    DEFAULT_RATES,
    PROTECTED_CONFIGS,
    ProtectedRow,
    run_protected_campaign,
)
from repro.models.registry import prepare_model
from repro.protect import ProtectionPolicy

#: Channels kept per traced map (matches ``ext_faults``).
MAP_CHANNELS = 8

#: Conv-layer omaps sampled from the trace (early / deep feature maps).
LAYER_PICKS = (0, 3)

#: Keyframe intervals swept by the tradeoff curve (None = plain DeltaD16).
CURVE_INTERVALS = (2, 4, 8, 16, None)

#: Per-bit rate of the curve sweep: high enough for visible damage, low
#: enough that SECDED miscorrection (3+ flips per codeword) stays out of
#: the anchor words, keeping the run bound structural.
CURVE_RATE = 1e-4

#: Schemes priced in the protected footprint/traffic comparison.
PROTECTED_SCHEMES = ("NoCompression", "Raw16-ECC", "RawD16", "DeltaD16", "DeltaD16-P")


def curve_policies(ecc: bool) -> "tuple[ProtectionPolicy, ...]":
    """Checksummed keyframe policies over ``CURVE_INTERVALS``.

    ``ecc`` toggles SECDED on the anchor words — the on/off axis of the
    curve.  Without it, anchor hits rejoin adjacent segments and runs
    exceed K; with it, surviving anchors make the bound hold.
    """
    tag = "e" if ecc else "p"
    return tuple(
        ProtectionPolicy(
            f"kf{k if k is not None else 'inf'}{tag}",
            word_ecc=ecc,
            group_checksum=True,
            keyframe_interval=k,
        )
        for k in CURVE_INTERVALS
    )


@dataclass(frozen=True)
class ProtectionStudyResult:
    """Protection study output for one model, as pinned by the goldens."""

    model: str
    crop: int
    layers: tuple[int, ...]
    map_channels: int
    stored_values: int
    #: Headline protected-vs-unprotected grid.
    rows: tuple[ProtectedRow, ...]
    #: Keyframe tradeoff curve at ``CURVE_RATE`` (flip1), ECC on then off.
    curve_rows: tuple[ProtectedRow, ...]
    #: Fig 5-style footprints including the protected schemes.
    footprints: dict
    #: Fig 14-style traffic including the protected schemes.
    traffic: dict

    __golden_properties__ = (
        "raw_ecc_silent",
        "keyframe_bound_ok",
        "full_ladder_overhead",
    )

    @property
    def raw_ecc_silent(self) -> int:
        """Silent corruptions of SECDED Raw16 under single-bit flips.

        The acceptance bar: zero at the rates ``ext_faults`` uses."""
        return sum(
            r.silent_values
            for r in self.rows
            if r.point.scheme == "Raw16"
            and r.point.policy == "ecc"
            and r.point.fault_model == "flip1"
        )

    @property
    def keyframe_bound_ok(self) -> bool:
        """Whether every ECC-anchored curve row measured max run ≤ K."""
        for row in self.curve_rows:
            name = row.point.policy
            if not name.endswith("e") or name == "kfinfe":
                continue
            k = int(name[2:-1])
            if row.metrics.max_run_length > k:
                return False
        return True

    @property
    def full_ladder_overhead(self) -> float:
        """Storage overhead of the full DeltaD16 protection ladder."""
        for row in self.rows:
            if row.point.scheme == "DeltaD16" and row.point.policy == "full":
                return row.overhead
        return 1.0


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    rates: tuple = DEFAULT_RATES,
    fault_models: tuple = ("flip1", "burst4"),
    trials: int = 2,
) -> ProtectionStudyResult:
    """Trace ``model`` and run the protected campaign on sampled omaps."""
    traces = traces_for(model, count=1, crop=crop, seed=seed)
    trace = traces[0]
    layers = tuple(i for i in LAYER_PICKS if i < len(trace))
    fmaps = [np.asarray(trace[i].omap[:MAP_CHANNELS], dtype=np.int64) for i in layers]
    rows = run_protected_campaign(
        fmaps,
        configs=PROTECTED_CONFIGS,
        rates=rates,
        fault_models=fault_models,
        trials=trials,
        seed=seed,
    )
    curve_rows: "list[ProtectedRow]" = []
    for ecc in (True, False):
        curve_rows.extend(
            run_protected_campaign(
                fmaps,
                configs=[("DeltaD16", p) for p in curve_policies(ecc)],
                rates=(CURVE_RATE,),
                fault_models=("flip1",),
                trials=trials,
                seed=seed,
            )
        )
    net = prepare_model(model, seed)
    footprints = normalized_footprints(traces, PROTECTED_SCHEMES)
    traffic = normalized_traffic(net, traces, PROTECTED_SCHEMES, crop, crop)
    return ProtectionStudyResult(
        model=model,
        crop=crop,
        layers=layers,
        map_channels=MAP_CHANNELS,
        stored_values=int(sum(f.size for f in fmaps)),
        rows=tuple(rows),
        curve_rows=tuple(curve_rows),
        footprints=footprints,
        traffic=traffic,
    )


def compute(profile: "Profile | None" = None) -> ProtectionStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).one_model_kwargs(64))
