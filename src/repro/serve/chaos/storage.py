"""Storage-fault chaos: protection ladders priced inside the serve path.

The serving simulation never materializes per-session activation arrays
— state is priced, not stored — so injecting storage faults per request
would be both impossibly slow and dishonest (there is nothing real to
corrupt).  Instead this module runs the *real* protection machinery once
per ladder point, on a real quantized map, with real seeded fault
injection, and distills the result into serve-path probabilities:

1. :func:`price_ladder` stores a seeded calibration map under the
   ladder's :class:`~repro.protect.policy.ProtectionPolicy`
   (:func:`repro.protect.store_protected`), corrupts its stored form
   with a :mod:`repro.faults` model at the requested per-bit rate and
   runs the full recovery ladder
   (:func:`repro.faults.inject.corrupt_protected_read`, which reads
   through :func:`repro.protect.read_protected`), and classifies each
   trial with serving semantics:

   - ``clean`` — nothing flagged, output exact;
   - ``corrected`` — ECC repaired everything, output exact, no flags;
   - ``detected`` — the ladder raised *any* flag: a production server
     cannot trust the state and must re-anchor (pay a cold frame);
   - ``silent`` — output wrong and **no** flag raised: the server would
     have served corrupt output without knowing.  This is the SLO
     number a ladder is judged by.

2. :class:`StorageChaos` replays those probabilities per warm request,
   with the outcome drawn from a hash of ``(fault_seed, session_id,
   frame_index)`` — keyed by content, never by processing order, so a
   chaos run is byte-identical across shard layouts.

The ladder's storage overhead also rides along: protected state is
bigger, so a protected store fits fewer resident sessions under the same
byte cap — the capacity cost of protection is charged even at fault
rate zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache import store as cache_store
from repro.data.video import synthesize_clip
from repro.faults.inject import corrupt_protected_read
from repro.faults.models import fault_model
from repro.protect import store_protected
from repro.protect.policy import ProtectionPolicy, protection_policy
from repro.protect.stream import RecoveryReport
from repro.serve.chaos.schedule import BurstWindow
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED, derive_seed, rng_for
from repro.utils.validation import check_positive_integer, check_unit_interval

__all__ = [
    "SERVE_LADDERS",
    "serve_ladder",
    "LadderPricing",
    "price_ladder",
    "corrupt_protected_read",
    "classify_trial",
    "StorageChaos",
]

#: Serve-path protection ladders.  These mirror the stock policies of
#: :mod:`repro.protect.policy` with one substitution: the stored state is
#: a delta stream with no anchor words, so the "ecc" rung protects the
#: packed stream (``stream_ecc``) rather than raw words (``word_ecc``,
#: which would protect nothing here).
SERVE_LADDERS: "dict[str, ProtectionPolicy]" = {
    "none": protection_policy("none"),
    "ecc": ProtectionPolicy("serve-ecc", stream_ecc=True),
    "checksum": protection_policy("checksum"),
    "keyframe": protection_policy("keyframe"),
    "full": protection_policy("full"),
}

#: Calibration-map crop: big enough for a realistic delta distribution,
#: small enough that pricing a ladder point stays cheap (and cached).
PRICING_CROP = 24

#: Default injection trials behind each pricing point.
PRICING_TRIALS = 64


def serve_ladder(name: str) -> ProtectionPolicy:
    """Look up a serve-path ladder by name."""
    try:
        return SERVE_LADDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown serve ladder {name!r}; available: {sorted(SERVE_LADDERS)}"
        ) from None


@dataclass(frozen=True)
class LadderPricing:
    """Measured serve-path behaviour of one (ladder, model, rate) point."""

    ladder: str
    fault_model: str
    rate: float
    trials: int
    p_clean: float
    p_corrected: float
    p_detected: float
    p_silent: float
    #: Protected stored bits / unprotected stored bits of the same map.
    storage_overhead: float

    def __post_init__(self) -> None:
        total = self.p_clean + self.p_corrected + self.p_detected + self.p_silent
        if self.trials and abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities must sum to 1, got {total}")


def _calibration_map(seed: int, crop: int) -> np.ndarray:
    """The quantized activation-like map all pricing trials corrupt."""
    frame = synthesize_clip(2, crop, crop, pan_px=1, seed=seed)[-1]
    return np.round(frame * 255.0).astype(np.int64)


def classify_trial(
    truth: np.ndarray, observed: np.ndarray, report: RecoveryReport
) -> str:
    """Serving-semantics outcome of one corrupted read.

    Any flag — an ECC detection, a zeroed checksum group, anything in the
    suspect mask — means a server re-anchors rather than trusting the
    state, whether or not the output happened to survive.  Only an exact,
    flag-free read serves warm; a wrong, flag-free read is silent.
    """
    flagged = (
        report.detected > 0
        or report.zeroed_groups > 0
        or bool(report.flagged_mask.any())
    )
    if flagged:
        return "detected"
    if bool(np.any(observed != np.asarray(truth, dtype=np.int64))):
        return "silent"
    if report.corrected > 0:
        return "corrected"
    return "clean"


def price_ladder(
    ladder: str,
    fault_model_name: str,
    rate: float,
    trials: int = PRICING_TRIALS,
    seed: int = DEFAULT_SEED,
    crop: int = PRICING_CROP,
) -> LadderPricing:
    """Measure one ladder's serve-path probabilities at one fault rate.

    Pure function of its arguments (map, faults, and recovery are all
    seeded), so the result is disk-cached like the service times.
    """
    policy = serve_ladder(ladder)
    fault_model(fault_model_name)  # fail fast on unknown names
    check_unit_interval("rate", rate)
    check_positive_integer("trials", trials)
    return cache_store.fetch_or_compute(
        "chaos_ladder",
        (ladder, fault_model_name, float(rate), trials, seed, crop),
        lambda: _price(ladder, policy, fault_model_name, float(rate), trials, seed, crop),
    )


def _price(
    ladder: str,
    policy: ProtectionPolicy,
    fault_model_name: str,
    rate: float,
    trials: int,
    seed: int,
    crop: int,
) -> LadderPricing:
    truth = _calibration_map(seed, crop)
    with timing.timed("chaos.price_ladder"):
        pmap = store_protected(truth, policy)
        baseline = store_protected(truth, SERVE_LADDERS["none"]).stored_bits
        overhead = pmap.stored_bits / baseline if baseline else 1.0
        counts = {"clean": 0, "corrected": 0, "detected": 0, "silent": 0}
        if rate == 0.0:
            counts["clean"] = trials
        else:
            model = fault_model(fault_model_name)
            for trial in range(trials):
                rng = rng_for(seed, "chaos-ladder", ladder, fault_model_name, rate, trial)
                observed, report, _ = corrupt_protected_read(pmap, rate, model, rng)
                counts[classify_trial(truth, observed, report)] += 1
    return LadderPricing(
        ladder=ladder,
        fault_model=fault_model_name,
        rate=rate,
        trials=trials,
        p_clean=counts["clean"] / trials,
        p_corrected=counts["corrected"] / trials,
        p_detected=counts["detected"] / trials,
        p_silent=counts["silent"] / trials,
        storage_overhead=overhead,
    )


#: Normalizer mapping a 63-bit :func:`derive_seed` hash to [0, 1).
_U64 = float(1 << 63)


@dataclass(frozen=True)
class StorageChaos:
    """Per-request storage-fault outcomes for one chaos run.

    ``outcome`` is consulted once per warm-eligible request (the only
    reads that touch stored temporal state).  The draw hashes the request
    identity, so the same request gets the same outcome on any shard
    layout and in any grid — the property every other
    deterministic subsystem here is built on.
    """

    seed: int
    base: LadderPricing
    #: Pricing at the burst-elevated fault rate (None = bursts do not
    #: raise the fault rate).
    burst: Optional[LadderPricing] = None
    bursts: "tuple[BurstWindow, ...]" = ()

    def pricing_at(self, t: float) -> LadderPricing:
        if self.burst is not None and any(
            w.start_s <= t < w.end_s for w in self.bursts
        ):
            return self.burst
        return self.base

    @property
    def overhead(self) -> float:
        """Per-session state inflation the ladder charges the byte cap."""
        return self.base.storage_overhead

    def outcome(self, session_id: int, frame_index: int, now: float) -> str:
        pricing = self.pricing_at(now)
        if pricing.rate <= 0.0:
            return "clean"
        u = derive_seed(self.seed, "chaos-storage", session_id, frame_index) / _U64
        if u < pricing.p_clean:
            return "clean"
        if u < pricing.p_clean + pricing.p_corrected:
            return "corrected"
        if u < pricing.p_clean + pricing.p_corrected + pricing.p_detected:
            return "detected"
        return "silent"
