"""Property tests for the calibration loop's safety claims.

The drift experiment's goldens pin a handful of grid points; these
tests check the underlying invariants across random distributions,
schedules, and thresholds:

- the detector can never trip in fewer observations than the EWMA
  arithmetic allows, and its smoothed state never exceeds the
  ``1 - (1 - alpha)^k`` bound;
- a measured recalibration's widths cover *every* reservoir sample
  exactly (zero clipped values for any sample's (profile, gain));
- an adaptive controller never serves a clipped value, for any drift
  schedule, and every frame is priced under exactly one recorded table
  generation (swap atomicity);
- the profiling statistics the loop prices against are reproducible
  byte for byte from a cold (cache-bypassing) collection.
"""

import math
import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.calib.drift import DriftConfig, DriftDetector
from repro.calib.recalibrate import CalibrationController, Recalibrator
from repro.calib.shadow import FrameSample
from repro.calib.stats import CalibStats, _layer_stats
from repro.data.synthesis import DriftPhase, DriftSchedule
from repro.utils.rng import rng_for


def _random_stats(seed: int, n_layers: int, profiles=("nature", "city")) -> CalibStats:
    rng = rng_for(seed, "calib-prop-stats")
    per_profile = {}
    for p in profiles:
        layers = []
        for i in range(n_layers):
            scale = int(rng.integers(8, 4000))
            values = rng.integers(0, scale, size=int(rng.integers(16, 256)))
            layers.append(_layer_stats(f"L{i}", i, [values]))
        per_profile[p] = tuple(layers)
    return CalibStats(
        model="synthetic",
        crop=8,
        frames=1,
        seed=seed,
        profiles=tuple(profiles),
        per_profile=per_profile,
    )


seeds = st.integers(0, 2**32 - 1)
alphas = st.floats(0.05, 1.0)
# trip=1.0 is excluded: the analytic floor log(1-trip) diverges there and
# float rounding lets the iterated EWMA reach 1.0 exactly after ~50 frames.
trips = st.floats(0.05, 0.99)
gains = st.floats(0.25, 4.0)


class TestDetectorBounds:
    @settings(max_examples=50, deadline=None)
    @given(alpha=alphas, trip=trips, stream_seed=seeds)
    def test_never_trips_before_the_ewma_floor(self, alpha, trip, stream_seed):
        # Starting from zero, k observations — even all ones — leave the
        # EWMA at most 1 - (1-alpha)^k, so no stream shorter than
        # ceil(log(1-trip)/log(1-alpha)) observations can trip.
        cfg = DriftConfig(alpha=alpha, overflow_trip=trip, overflow_clear=trip / 2)
        d = DriftDetector(1, cfg)
        if alpha == 1.0 or trip <= alpha:
            k_min = 1
        elif 1 - (1 - alpha) ** 10_000 < trip:
            k_min = 10_000  # trip unreachable in any test-sized stream
        else:
            k_min = math.ceil(math.log(1 - trip) / math.log(1 - alpha))
        rng = rng_for(stream_seed, "calib-prop-stream")
        for k in range(1, min(k_min, 500) + 1):
            over = bool(rng.random() < 0.9)
            tripped = d.update_overflow([over])
            assert d.overflow_ewma(0) <= 1 - (1 - alpha) ** k + 1e-12
            if k < k_min:
                assert tripped == [], f"tripped at observation {k} < floor {k_min}"

    @settings(max_examples=30, deadline=None)
    @given(alpha=alphas, stream_seed=seeds)
    def test_all_ones_reaches_any_threshold_eventually(self, alpha, stream_seed):
        cfg = DriftConfig(alpha=alpha, overflow_trip=0.5, overflow_clear=0.1)
        d = DriftDetector(1, cfg)
        tripped = []
        for _ in range(2000):
            tripped += d.update_overflow([True])
            if tripped:
                break
        assert tripped == [0]


class TestRecalibrationCoverage:
    @settings(max_examples=30, deadline=None)
    @given(stats_seed=seeds, sample_seed=seeds, n_layers=st.integers(1, 6))
    def test_measured_widths_cover_the_reservoir_exactly(
        self, stats_seed, sample_seed, n_layers
    ):
        stats = _random_stats(stats_seed, n_layers)
        rng = rng_for(sample_seed, "calib-prop-samples")
        samples = tuple(
            FrameSample(
                float(i),
                stats.profiles[int(rng.integers(len(stats.profiles)))],
                float(rng.uniform(0.25, 4.0)),
            )
            for i in range(int(rng.integers(1, 12)))
        )
        widths = Recalibrator(stats).measured_widths(samples)
        for s in samples:
            for layer, w in zip(stats.layers(s.profile), widths):
                assert layer.clipped_values(w, s.gain) == 0
                assert layer.overflow_groups(w, s.gain) == 0


def _random_schedule(seed: int, duration: float = 60.0) -> DriftSchedule:
    rng = rng_for(seed, "calib-prop-schedule")
    phases = [DriftPhase(0.0, 1.0, 1.0, 0.0, "nature")]
    gain = 1.0
    t = 0.0
    for _ in range(int(rng.integers(0, 4))):
        t += float(rng.uniform(3.0, 15.0))
        if t >= duration:
            break
        target = float(np.exp(rng.uniform(-1.2, 1.2)))
        profile = ("nature", "city")[int(rng.integers(2))]
        phases.append(DriftPhase(t, gain, target, float(rng.uniform(0.0, 5.0)), profile))
        gain = target
    return DriftSchedule(duration, tuple(phases))


class TestControllerSafety:
    @settings(max_examples=25, deadline=None)
    @given(stats_seed=seeds, sched_seed=seeds)
    def test_adaptive_never_serves_clipped_and_swaps_atomically(
        self, stats_seed, sched_seed
    ):
        stats = _random_stats(stats_seed, n_layers=3)
        schedule = _random_schedule(sched_seed)
        ctl = CalibrationController(
            stats=stats,
            schedule=schedule,
            mode="adaptive",
            sample_period=2,
            recalib_delay_s=2.0,
            seed=stats_seed,
        )
        versions = []
        t = 0.0
        frame = 0
        while t < schedule.duration_s:
            ctl.advance(t)
            o = ctl.on_frame(t, 1, frame, arrival_s=t)
            # The hard guarantee, before/during/after any trip:
            assert o.clipped_served == 0
            # Atomicity: the frame's generation is recorded and final.
            assert o.version in ctl.tables
            versions.append(o.version)
            frame += 1
            t += 0.7
        assert versions == sorted(versions)  # generations only move forward
        assert ctl.telemetry.clipped_values_served == 0
        # Recorded history is append-only and starts at the initial table.
        assert sorted(ctl.tables) == list(range(max(versions) + 1))


class TestStatsReproducibility:
    def test_profiling_stats_reproducible_cold(self):
        # The serve-path goldens already pin end-to-end determinism; this
        # isolates the calibration half: two cold collections of the
        # profiled statistics the loop prices against must agree exactly.
        from repro.calib.stats import collect_calib_stats

        prior = os.environ.get("REPRO_NO_CACHE")
        os.environ["REPRO_NO_CACHE"] = "1"  # a cache hit would hide a divergence
        try:
            first, other = (
                collect_calib_stats("DnCNN", profiles=("nature",), crop=16, frames=1)
                for _ in range(2)
            )
        finally:
            if prior is None:
                os.environ.pop("REPRO_NO_CACHE", None)
            else:
                os.environ["REPRO_NO_CACHE"] = prior
        assert other.profiles == first.profiles
        for a, b in zip(first.layers("nature"), other.layers("nature")):
            assert a.name == b.name and a.signed == b.signed
            assert a.max_mag == b.max_mag
            assert np.array_equal(a.value_mags, b.value_mags)
            assert np.array_equal(a.value_counts, b.value_counts)
            assert np.array_equal(a.group_mags, b.group_mags)
            assert np.array_equal(a.group_counts, b.group_counts)
