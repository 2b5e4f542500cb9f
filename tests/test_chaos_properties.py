"""Property tests for the chaos SLO: ``full`` never serves silently.

The claim the chaos experiment's goldens pin at a few grid points is
checked here across random maps, fault rates, fault models, and seeds:
a corrupted read under the ``full`` protection ladder is *never*
classified silent — it is corrected exactly or flagged for re-anchor —
and the classification is reproducible from the seeds alone.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults.models import FAULT_MODELS, fault_model
from repro.protect import store_protected
from repro.serve.chaos.schedule import BurstWindow
from repro.serve.chaos.storage import (
    SERVE_LADDERS,
    LadderPricing,
    StorageChaos,
    classify_trial,
    corrupt_protected_read,
)
from repro.utils.rng import rng_for


def _random_map(seed: int, side: int) -> np.ndarray:
    """A random activation-like quantized (C, H, W) map (what the store protects)."""
    rng = rng_for(seed, "chaos-prop-map")
    channels = int(rng.integers(1, 4))
    return rng.integers(0, 256, size=(channels, side, side), dtype=np.int64)


maps = st.integers(0, 2**32 - 1)
sides = st.integers(6, 16)
rates = st.floats(1e-4, 5e-2)
models = st.sampled_from(sorted(FAULT_MODELS))
seeds = st.integers(0, 2**32 - 1)


class TestFullLadderNeverSilent:
    @settings(max_examples=25, deadline=None)
    @given(map_seed=maps, side=sides, rate=rates, model_name=models, seed=seeds)
    def test_corrupted_reads_are_never_silent(self, map_seed, side, rate, model_name, seed):
        truth = _random_map(map_seed, side)
        model = fault_model(model_name)
        pmap = store_protected(truth, SERVE_LADDERS["full"])
        observed, report, faults = corrupt_protected_read(
            pmap, rate, model, rng_for(seed, "chaos-prop-inject")
        )
        outcome = classify_trial(truth, observed, report)
        assert outcome != "silent", (
            f"{faults} {model_name} faults at rate {rate:g} served "
            f"silently under the full ladder"
        )
        # Unflagged reads must be exact — that is what makes the
        # re-anchor decision safe to gate on the flags alone.
        if outcome in ("clean", "corrected"):
            assert np.array_equal(observed, truth)

    @settings(max_examples=10, deadline=None)
    @given(map_seed=maps, side=sides, rate=rates, model_name=models, seed=seeds)
    def test_classification_is_reproducible(self, map_seed, side, rate, model_name, seed):
        truth = _random_map(map_seed, side)
        model = fault_model(model_name)
        outcomes = []
        for _ in range(2):
            pmap = store_protected(truth, SERVE_LADDERS["full"])
            observed, report, faults = corrupt_protected_read(
                pmap, rate, model, rng_for(seed, "chaos-prop-inject")
            )
            outcomes.append(
                (observed.tolist(), classify_trial(truth, observed, report), faults)
            )
        assert outcomes[0] == outcomes[1]


class TestStorageChaosDraws:
    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.tuples(*[st.integers(0, 8)] * 3),
        seed=seeds,
        sid=st.integers(0, 10**6),
        fidx=st.integers(0, 64),
    )
    def test_no_silent_mass_means_no_silent_draws(self, weights, seed, sid, fidx):
        total = sum(weights) or 1
        clean, corrected, detected = (w / total for w in weights)
        if not sum(weights):
            clean = 1.0
        pricing = LadderPricing(
            ladder="full",
            fault_model="flip1",
            rate=1e-2,
            trials=8,
            p_clean=clean,
            p_corrected=corrected,
            p_detected=detected,
            p_silent=0.0,
            storage_overhead=1.0,
        )
        chaos = StorageChaos(seed=seed, base=pricing)
        outcome = chaos.outcome(sid, fidx, now=1.0)
        assert outcome != "silent"
        # Content-keyed: the draw is a pure function of identity, not time.
        assert chaos.outcome(sid, fidx, now=99.0) == outcome

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, sid=st.integers(0, 10**6), fidx=st.integers(0, 64))
    def test_burst_pricing_applies_only_inside_windows(self, seed, sid, fidx):
        base = LadderPricing(
            ladder="full",
            fault_model="flip1",
            rate=1e-3,
            trials=8,
            p_clean=1.0,
            p_corrected=0.0,
            p_detected=0.0,
            p_silent=0.0,
            storage_overhead=1.0,
        )
        burst = LadderPricing(
            ladder="full",
            fault_model="flip1",
            rate=1e-2,
            trials=8,
            p_clean=0.0,
            p_corrected=0.0,
            p_detected=1.0,
            p_silent=0.0,
            storage_overhead=1.0,
        )
        chaos = StorageChaos(
            seed=seed, base=base, burst=burst, bursts=(BurstWindow(5.0, 6.0, 10.0, 1.0),)
        )
        assert chaos.outcome(sid, fidx, now=4.9) == "clean"
        assert chaos.outcome(sid, fidx, now=5.5) == "detected"
        assert chaos.outcome(sid, fidx, now=6.0) == "clean"
