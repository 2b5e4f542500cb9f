"""Unit tests for the self-healing calibration loop (:mod:`repro.calib`).

Synthetic :class:`~repro.calib.stats.LayerStats` (built from hand-rolled
magnitude arrays, no model tracing) drive the exact-count queries, the
drift detector's hysteresis, and the controller's full
trip -> fallback -> recalibrate -> swap cycle; the serve-side pieces
(versioned state store, calibration telemetry) are tested against the
behaviour the serving goldens rely on.
"""

import numpy as np
import pytest

from repro.calib.drift import DriftConfig, DriftDetector
from repro.calib.recalibrate import (
    CalibrationController,
    CalibrationTable,
    CalibSpec,
    Recalibrator,
)
from repro.calib.shadow import FrameSample, Reservoir, ShadowCounters
from repro.calib.stats import CalibStats, _layer_stats
from repro.core.precision import MAX_PRECISION
from repro.data.synthesis import (
    DRIFT_BASE_PROFILE,
    DRIFT_SHIFT_PROFILES,
    RAMP_FRACTION,
    DriftPhase,
    DriftSchedule,
    generate_drift_schedule,
)
from repro.serve.state import TemporalStateStore
from repro.serve.telemetry import CalibTelemetry


def make_stats(maps_by_profile: dict, model: str = "synthetic") -> CalibStats:
    """CalibStats from {profile: [per-layer 1-D magnitude arrays]}."""
    profiles = tuple(maps_by_profile)
    per_profile = {
        p: tuple(
            _layer_stats(f"L{i}", i, [np.asarray(m, dtype=np.int64)])
            for i, m in enumerate(maps)
        )
        for p, maps in maps_by_profile.items()
    }
    return CalibStats(
        model=model, crop=8, frames=1, seed=0, profiles=profiles, per_profile=per_profile
    )


def ramp_schedule(duration: float = 100.0, target: float = 2.0) -> DriftSchedule:
    """Identity until t=10, then a 10 s linear ramp to ``target``."""
    return DriftSchedule(
        duration,
        (
            DriftPhase(0.0, 1.0, 1.0, 0.0, "nature"),
            DriftPhase(10.0, 1.0, target, 10.0, "nature"),
        ),
    )


class TestLayerStats:
    def test_queries_match_brute_force(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 900, size=512)
        (layer,) = make_stats({"nature": [values]}).layers("nature")
        pad = (-values.size) % 16
        padded = np.concatenate([values, np.zeros(pad, dtype=np.int64)])
        groups = padded.reshape(-1, 16).max(axis=1)
        for gain in (0.5, 1.0, 1.37, 2.0, 3.9):
            drifted = np.floor(values * gain + 0.5)
            gdrifted = np.floor(groups * gain + 0.5)
            for width in (4, 7, 10, 12):
                cap = (1 << width) - 1  # unsigned: no negatives in the sample
                assert layer.clipped_values(width, gain) == int((drifted > cap).sum())
                assert layer.overflow_groups(width, gain) == int((gdrifted > cap).sum())
                err = np.maximum(drifted - cap, 0.0)
                assert layer.clip_energy(width, gain) == pytest.approx(
                    float((err * err).sum())
                )

    def test_required_width_is_exactly_safe(self):
        (layer,) = make_stats({"nature": [np.arange(0, 300, 7)]}).layers("nature")
        for gain in (0.3, 1.0, 1.9, 6.0):
            w = layer.required_width(gain)
            assert layer.clipped_values(w, gain) == 0
            if w > 1:
                assert layer.clipped_values(w - 1, gain) > 0
            assert layer.slack_bits(w, gain) == 0

    def test_hardware_word_never_clips(self):
        (layer,) = make_stats({"nature": [np.asarray([30000])]}).layers("nature")
        assert layer.clipped_values(MAX_PRECISION, gain=50.0) == 0
        assert layer.overflow_groups(MAX_PRECISION, gain=50.0) == 0
        assert layer.clip_energy(MAX_PRECISION, gain=50.0) == 0.0

    def test_signed_layers_reserve_the_sign_bit(self):
        (layer,) = make_stats({"nature": [np.asarray([-100, 40, 7])]}).layers("nature")
        assert layer.signed
        # |−100| needs 7 magnitude bits + 1 sign bit.
        assert layer.required_width(1.0) == 8
        # At 7 bits signed the cap is 63: the 100 and the 40... only 100.
        assert layer.clipped_values(7, 1.0) == 1


class TestShadow:
    def test_sampling_is_deterministic_and_order_free(self):
        a = ShadowCounters(sample_period=4, seed=11)
        b = ShadowCounters(sample_period=4, seed=11)
        keys = [(s, f) for s in range(5) for f in range(20)]
        fwd = [a.is_sampled(s, f) for s, f in keys]
        rev = [b.is_sampled(s, f) for s, f in reversed(keys)]
        assert fwd == list(reversed(rev))
        rate = sum(fwd) / len(fwd)
        assert 0.05 < rate < 0.6  # roughly 1/period, seeded not strided
        assert all(ShadowCounters(sample_period=1).is_sampled(s, f) for s, f in keys)

    def test_reservoir_keeps_the_most_recent(self):
        r = Reservoir(3)
        for i in range(7):
            r.add(FrameSample(float(i), "nature", 1.0 + i))
        assert r.admitted == 7
        assert [s.arrival_s for s in r.samples()] == [4.0, 5.0, 6.0]
        r.clear()
        assert r.samples() == ()


class TestDriftDetector:
    def test_persistent_overflow_trips_on_third_frame(self):
        d = DriftDetector(2)
        assert d.update_overflow([True, False]) == []
        assert d.update_overflow([True, False]) == []
        assert d.update_overflow([True, False]) == [0]
        # Tripped layer stays quiet until it re-arms below the clear line.
        assert d.update_overflow([True, False]) == []

    def test_single_blip_decays_without_tripping(self):
        d = DriftDetector(1)
        assert d.update_overflow([True]) == []
        for _ in range(50):
            assert d.update_overflow([False]) == []
        assert d.overflow_ewma(0) < 1e-4

    def test_hysteresis_rearms_below_clear(self):
        d = DriftDetector(1)
        for _ in range(3):
            d.update_overflow([True])
        # Drain the EWMA below overflow_clear, then overflow again: the
        # re-armed channel must trip a second time.
        while d.overflow_ewma(0) > d.config.overflow_clear:
            assert d.update_overflow([False]) == []
        tripped = []
        for _ in range(5):
            tripped += d.update_overflow([True])
        assert tripped == [0]

    def test_suppressed_trip_is_deferred_not_lost(self):
        # may_trip=False (a cooldown window) must not disarm the channel:
        # overflow persisting past the window trips on the first eligible
        # frame.  Regression test for the lost-trip bug.
        d = DriftDetector(1)
        for _ in range(10):
            assert d.update_overflow([True], may_trip=False) == []
        assert d.update_overflow([True], may_trip=True) == [0]

    def test_slack_respects_min_sampled(self):
        cfg = DriftConfig(alpha=1.0, slack_trip=0.6, slack_clear=0.3, min_sampled=3)
        d = DriftDetector(1, cfg)
        assert d.update_slack([True]) == []
        assert d.update_slack([True]) == []
        assert d.update_slack([True]) == [0]

    def test_length_mismatch_raises(self):
        d = DriftDetector(3)
        with pytest.raises(ValueError):
            d.update_overflow([True])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(alpha=0.0)
        with pytest.raises(ValueError):
            DriftConfig(overflow_clear=0.9, overflow_trip=0.5)


class TestRecalibrator:
    def test_fallback_widens_only_named_layers(self):
        table = CalibrationTable(0, (6, 9, 12), "profiled")
        stats = make_stats({"nature": [np.arange(40), np.arange(400), np.arange(3000)]})
        widths = Recalibrator(stats).fallback_widths(table, {1})
        assert widths == (6, MAX_PRECISION, 12)

    def test_measured_widths_cover_every_reservoir_sample(self):
        stats = make_stats(
            {
                "nature": [np.arange(0, 200, 3), np.arange(0, 1000, 17)],
                "city": [np.arange(0, 500, 3), np.arange(0, 700, 17)],
            }
        )
        samples = (
            FrameSample(0.0, "nature", 1.0),
            FrameSample(1.0, "city", 2.5),
            FrameSample(2.0, "nature", 1.7),
        )
        widths = Recalibrator(stats).measured_widths(samples)
        for s in samples:
            for layer, w in zip(stats.layers(s.profile), widths):
                assert layer.clipped_values(w, s.gain) == 0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            CalibrationTable(0, (), "profiled")
        with pytest.raises(ValueError):
            CalibrationTable(0, (0,), "profiled")
        with pytest.raises(ValueError):
            CalibrationTable(0, (8,), "hunch")


def controller(stats, schedule, mode="adaptive", **kw):
    kw.setdefault("sample_period", 1)  # shadow every frame: tiny tests
    kw.setdefault("recalib_delay_s", 5.0)
    return CalibrationController(stats=stats, schedule=schedule, mode=mode, **kw)


def drive(ctl, t0, t1, step=1.0, sid=1):
    """Serve one frame per ``step`` seconds; returns the outcomes."""
    out = []
    t = t0
    frame = 0
    while t < t1:
        ctl.advance(t)
        out.append(ctl.on_frame(t, sid, frame, arrival_s=t))
        frame += 1
        t += step
    return out


STATS = make_stats({"nature": [np.arange(0, 200, 3), np.arange(0, 900, 11)]})


class TestController:
    def test_identity_schedule_is_a_perfect_bystander(self):
        sched = generate_drift_schedule(100.0, 1.0)
        ctl = controller(STATS, sched)
        outcomes = drive(ctl, 0.0, 100.0)
        assert all(o.version == 0 for o in outcomes)
        assert ctl.telemetry.trips_overflow == 0
        assert ctl.telemetry.swaps == 0
        assert ctl.telemetry.clipped_values_served == 0
        assert ctl.telemetry.clipped_values_averted == 0

    def test_static_serves_clipped_adaptive_averts(self):
        sched = ramp_schedule(target=3.0)
        static = controller(STATS, sched, mode="static")
        adaptive = controller(STATS, sched)
        drive(static, 0.0, 60.0)
        drive(adaptive, 0.0, 60.0)
        assert static.telemetry.clipped_values_served > 0
        assert static.telemetry.swaps == 0
        assert static.telemetry.psnr_db < float("inf")
        assert adaptive.telemetry.clipped_values_served == 0
        assert adaptive.telemetry.clipped_values_averted > 0
        assert adaptive.telemetry.psnr_db == float("inf")

    def test_trip_fallback_then_measured_recalibration(self):
        ctl = controller(STATS, ramp_schedule(target=3.0))
        drive(ctl, 0.0, 60.0)
        sources = [ctl.tables[v].source for v in sorted(ctl.tables)]
        assert sources[0] == "profiled"
        assert "fallback" in sources and "recalibrated" in sources
        assert sources.index("fallback") < sources.index("recalibrated")
        # Post-recovery the table covers the held gain: the tail frames
        # show no overflow and serve below the raw-width ceiling.
        tail = drive(ctl, 60.0, 80.0)
        assert all(o.overflow_layers == () for o in tail)
        assert all(o.fallback_layers == () for o in tail)
        assert ctl.telemetry.traffic_ratio_vs_wide < 1.0

    def test_every_frame_priced_under_one_recorded_generation(self):
        ctl = controller(STATS, ramp_schedule(target=2.5))
        outcomes = drive(ctl, 0.0, 80.0)
        versions = [o.version for o in outcomes]
        assert versions == sorted(versions)
        assert set(versions) <= set(ctl.tables)
        assert ctl.telemetry.swaps == max(versions)

    def test_overflow_past_cooldown_still_heals(self):
        # A long cooldown swallows the re-trip window of the first swap;
        # the deferred trip must still fire once the window ends.
        ctl = controller(STATS, ramp_schedule(target=3.0), cooldown_s=8.0)
        drive(ctl, 0.0, 90.0)
        tail = drive(ctl, 90.0, 100.0)
        assert all(o.overflow_layers == () for o in tail)
        assert any(t.source == "recalibrated" for t in ctl.tables.values())

    def test_empty_reservoir_defers_the_measured_pass(self):
        ctl = controller(STATS, ramp_schedule(target=3.0))
        ctl._schedule_recalibration(0.0)
        assert ctl.advance(100.0) is False  # nothing sampled yet: no swap
        assert ctl.table.version == 0


class TestDriftSchedule:
    def test_identity_schedule_holds_the_base_profile(self):
        sched = generate_drift_schedule(30.0, 1.0)
        assert sched.phases == (DriftPhase(0.0, 1.0, 1.0, 0.0, DRIFT_BASE_PROFILE),)

    def test_events_ramp_and_shift_within_fixed_bounds(self):
        duration, magnitude, events = 60.0, 3.0, 6
        slot = duration / (events + 1)
        log_mag = float(np.log(magnitude))
        shifted = set()
        for seed in range(4):
            sched = generate_drift_schedule(duration, magnitude, events=events, seed=seed)
            head, *rest = sched.phases
            assert head == DriftPhase(0.0, 1.0, 1.0, 0.0, DRIFT_BASE_PROFILE)
            assert len(rest) == events
            prev = head
            for k, phase in enumerate(rest):
                # Each event sits in the middle half of its own slot.
                assert abs(phase.start_s - slot * (k + 1)) <= 0.25 * slot
                assert phase.ramp_s == RAMP_FRACTION * slot
                # Gains chain, and every excursion is a real one.
                assert phase.gain0 == prev.gain1
                excursion = abs(float(np.log(phase.gain1)))
                assert 0.5 * log_mag - 1e-12 <= excursion <= log_mag + 1e-12
                assert phase.profile in (prev.profile, *DRIFT_SHIFT_PROFILES)
                shifted.add(phase.profile)
                prev = phase
        assert shifted & set(DRIFT_SHIFT_PROFILES)


class TestCalibSpec:
    def test_validates_mode_and_profile_coverage(self):
        sched = generate_drift_schedule(10.0, 1.0)
        with pytest.raises(ValueError):
            CalibSpec(model="DnCNN", schedule=sched, mode="off")
        shifted = DriftSchedule(
            10.0,
            (DriftPhase(0.0, 1.0, 1.0, 0.0, "nature"), DriftPhase(5.0, 1.0, 2.0, 1.0, "texture")),
        )
        with pytest.raises(ValueError, match="texture"):
            CalibSpec(model="DnCNN", schedule=shifted, profiles=("nature",))


class TestStateVersioning:
    def test_swap_reanchors_resident_sessions_once(self):
        store = TemporalStateStore(capacity_bytes=1000, bytes_per_session=10)
        assert store.serve(1, 0) == "spatial"
        assert store.serve(1, 1) == "temporal"
        store.set_version(1)
        assert not store.is_warm(1, 2)
        assert store.serve(1, 2) == "spatial"
        assert store.stats.reanchors_recal == 1
        # Re-admitted under the new version: warm again, no second charge.
        assert store.serve(1, 3) == "temporal"
        assert store.stats.reanchors_recal == 1

    def test_swap_does_not_steal_other_reanchor_causes(self):
        store = TemporalStateStore(capacity_bytes=1000, bytes_per_session=10)
        store.serve(1, 0)
        store.set_version(1)
        # A scene cut on stale state is charged to the swap (the state
        # was unusable for two reasons; the swap is the accounting one
        # only when the cut alone would have served warm).
        assert store.serve(1, 1, scene_cut=True) == "spatial"
        assert store.stats.reanchors_cut == 0
        assert store.stats.reanchors_recal == 1

    def test_legacy_path_without_versioning_is_untouched(self):
        store = TemporalStateStore(capacity_bytes=1000, bytes_per_session=10)
        store.serve(1, 0)
        assert store.serve(1, 1) == "temporal"
        assert store.stats.reanchors_recal == 0


class TestCalibTelemetry:
    def test_merge_is_exact(self):
        def fill(t, offset):
            t.on_frame(
                1.0 + offset,
                sampled=True,
                overflow_layers=1,
                fallback_layers=1,
                clipped_served=3,
                clipped_averted=2,
                clip_energy=9.0,
                traffic_bits=100,
                wide_traffic_bits=160,
                values=10,
            )
            t.on_trip("overflow", 1)
            t.on_swap(1.0 + offset, recalibrated=True)

        a = CalibTelemetry(duration_s=10.0)
        b = CalibTelemetry(duration_s=10.0)
        fill(a, 0.0)
        fill(b, 5.0)
        a.merge(b)
        assert a.frames == 2
        assert a.clipped_values_served == 6
        assert a.swaps == 2
        assert a.recalibrations == 2
        assert sum(a.swap_by_bucket) == 2
        assert a.traffic_ratio_vs_wide == pytest.approx(100 / 160)

    def test_merge_rejects_mismatched_windows(self):
        with pytest.raises(ValueError):
            CalibTelemetry(duration_s=1.0).merge(CalibTelemetry(duration_s=2.0))
