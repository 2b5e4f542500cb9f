"""Tests for the serving simulation (repro.serve.*)."""

import numpy as np
import pytest

from repro.serve.latency import ServiceTimes, measure_service_times
from repro.serve.service import ServeConfig, serve_workload
from repro.serve.state import TemporalStateStore
from repro.serve.workload import (
    VFR_INTERVAL_SCALES,
    Request,
    WorkloadSpec,
    diurnal_rate,
    generate_diurnal_requests,
    generate_requests,
    generate_vfr_requests,
    offered_rps,
)
from tests.oracles.serve import (
    BatchPolicy,
    BoundedQueue,
    QueuedRequest,
    VirtualClock,
    batch_ready,
    next_deadline_check,
)


class TestVirtualClock:
    """The oracle's event loop (tests/oracles/serve.py)."""

    def test_fires_in_time_order(self):
        clock = VirtualClock()
        fired = []
        clock.schedule_at(2.0, fired.append, "b")
        clock.schedule_at(1.0, fired.append, "a")
        clock.schedule_at(3.0, fired.append, "c")
        end = clock.run()
        assert fired == ["a", "b", "c"]
        assert end == 3.0
        assert clock.fired == 3

    def test_ties_fire_in_scheduling_order(self):
        clock = VirtualClock()
        fired = []
        for tag in ("first", "second", "third"):
            clock.schedule_at(1.0, fired.append, tag)
        clock.run()
        assert fired == ["first", "second", "third"]

    def test_callbacks_can_schedule(self):
        clock = VirtualClock()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                clock.schedule(1.0, chain, n + 1)

        clock.schedule_at(0.0, chain, 0)
        assert clock.run() == 3.0
        assert fired == [0, 1, 2, 3]

    def test_cancelled_events_do_not_fire(self):
        clock = VirtualClock()
        fired = []
        event = clock.schedule_at(1.0, fired.append, "no")
        clock.schedule_at(2.0, fired.append, "yes")
        event.cancel()
        assert clock.pending() == 1
        clock.run()
        assert fired == ["yes"]
        assert clock.fired == 1

    def test_scheduling_into_the_past_raises(self):
        clock = VirtualClock()
        clock.schedule_at(5.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError, match="before now"):
            clock.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError, match="delay"):
            clock.schedule(-1.0, lambda: None)

    def test_run_until_leaves_later_events(self):
        clock = VirtualClock()
        fired = []
        clock.schedule_at(1.0, fired.append, "a")
        clock.schedule_at(5.0, fired.append, "b")
        assert clock.run(until=2.0) == 2.0
        assert fired == ["a"]
        assert clock.pending() == 1


class TestWorkload:
    def spec(self, **kw):
        base = dict(
            duration_s=10.0,
            session_rate=2.0,
            frames_per_session=4,
            frame_interval_s=0.1,
            seed=123,
        )
        base.update(kw)
        return WorkloadSpec(**base)

    def test_deterministic(self):
        a = generate_requests(self.spec())
        b = generate_requests(self.spec())
        assert a == b

    def test_seed_changes_workload(self):
        a = generate_requests(self.spec(seed=1))
        b = generate_requests(self.spec(seed=2))
        assert a != b

    def test_sorted_by_arrival(self):
        reqs = generate_requests(self.spec())
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals == sorted(arrivals)

    def test_sessions_emit_full_clips_at_frame_interval(self):
        spec = self.spec()
        reqs = generate_requests(spec)
        by_session = {}
        for r in reqs:
            by_session.setdefault(r.session_id, []).append(r)
        assert by_session  # rate 2/s over 10s: sessions exist
        for frames in by_session.values():
            frames.sort(key=lambda r: r.frame_index)
            assert [f.frame_index for f in frames] == list(range(spec.frames_per_session))
            start = frames[0].arrival_s
            for f in frames:
                assert f.arrival_s == pytest.approx(start + f.frame_index * spec.frame_interval_s)

    def test_poisson_rate_roughly_matches(self):
        spec = self.spec(duration_s=500.0, session_rate=3.0, seed=5)
        reqs = generate_requests(spec)
        rate = offered_rps(reqs, spec) / spec.frames_per_session
        assert rate == pytest.approx(3.0, rel=0.15)

    def test_bursty_arrivals_only_in_on_windows(self):
        spec = self.spec(
            process="bursty",
            burst_on_s=1.0,
            burst_off_s=2.0,
            duration_s=60.0,
            session_rate=4.0,
            frames_per_session=1,
            seed=9,
        )
        reqs = generate_requests(spec)
        assert reqs
        period = spec.burst_on_s + spec.burst_off_s
        for r in reqs:
            assert (r.arrival_s % period) < spec.burst_on_s

    def test_bursty_mean_rate_matches_poisson_target(self):
        spec = self.spec(
            process="bursty",
            duration_s=600.0,
            session_rate=2.0,
            frames_per_session=1,
            seed=17,
        )
        reqs = generate_requests(spec)
        assert len(reqs) / spec.duration_s == pytest.approx(2.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError, match="process"):
            self.spec(process="uniform")
        with pytest.raises(ValueError):
            self.spec(duration_s=0)
        with pytest.raises(ValueError):
            self.spec(process="bursty", burst_on_s=0.0)

    def test_diurnal_rate_shape(self):
        assert diurnal_rate(0.0, 10.0, 0.5, 100.0) == pytest.approx(5.0)
        assert diurnal_rate(50.0, 10.0, 0.5, 100.0) == pytest.approx(15.0)
        assert diurnal_rate(100.0, 10.0, 0.5, 100.0) == pytest.approx(5.0)

    def test_diurnal_requests_deterministic_and_sorted(self):
        spec = self.spec(duration_s=50.0)
        a = generate_diurnal_requests(spec, amplitude=0.8, period_s=50.0)
        b = generate_diurnal_requests(spec, amplitude=0.8, period_s=50.0)
        assert a == b
        assert [r.arrival_s for r in a] == sorted(r.arrival_s for r in a)
        assert sorted({r.session_id for r in a}) == list(range(len({r.session_id for r in a})))

    def test_diurnal_concentrates_load_at_peak(self):
        # One full period: the half around the peak must hold most sessions.
        spec = self.spec(duration_s=400.0, session_rate=5.0, frames_per_session=1)
        reqs = generate_diurnal_requests(spec, amplitude=0.9, period_s=400.0)
        peak_half = sum(1 for r in reqs if 100.0 <= r.arrival_s < 300.0)
        assert peak_half > 0.75 * len(reqs)
        # Mean rate stays near the spec's rate (thinning preserves it).
        assert len(reqs) / spec.duration_s == pytest.approx(5.0, rel=0.15)

    def test_diurnal_zero_amplitude_matches_plain_poisson_rate(self):
        spec = self.spec(duration_s=300.0, session_rate=3.0, frames_per_session=1)
        reqs = generate_diurnal_requests(spec, amplitude=0.0, period_s=100.0)
        assert len(reqs) / spec.duration_s == pytest.approx(3.0, rel=0.15)

    def test_diurnal_validation(self):
        spec = self.spec()
        with pytest.raises(ValueError, match="amplitude"):
            generate_diurnal_requests(spec, amplitude=1.5, period_s=10.0)
        with pytest.raises(ValueError, match="period_s"):
            generate_diurnal_requests(spec, amplitude=0.5, period_s=0.0)
        with pytest.raises(ValueError, match="poisson"):
            generate_diurnal_requests(self.spec(process="bursty"), 0.5, 10.0)

    def test_vfr_without_switches_is_the_fixed_rate_workload(self):
        spec = self.spec()
        assert generate_vfr_requests(spec, switch_probability=0.0) == generate_requests(spec)

    def test_vfr_intervals_come_from_the_scale_set(self):
        spec = self.spec(frames_per_session=12)
        reqs = generate_vfr_requests(spec, switch_probability=1.0)
        fixed = generate_requests(spec)
        assert len(reqs) == len(fixed)
        by_session = {}
        for r in reqs:
            by_session.setdefault(r.session_id, []).append(r)
        heads = {r.session_id: r.arrival_s for r in fixed if r.frame_index == 0}
        allowed = [spec.frame_interval_s * s for s in VFR_INTERVAL_SCALES]
        seen = set()
        for sid, frames in by_session.items():
            frames.sort(key=lambda r: r.frame_index)
            # Session starts are the fixed-rate generator's, to the bit.
            assert frames[0].arrival_s == heads[sid]
            for a, b in zip(frames, frames[1:]):
                gap = b.arrival_s - a.arrival_s
                match = [i for i, iv in enumerate(allowed) if gap == pytest.approx(iv)]
                assert match, gap
                seen.update(match)
        # Every scale is drawn somewhere, so the cadence really varies.
        assert seen == set(range(len(VFR_INTERVAL_SCALES)))


class TestTemporalStateStore:
    def test_consecutive_frames_go_warm(self):
        store = TemporalStateStore(capacity_bytes=100, bytes_per_session=10)
        assert store.serve(1, 0) == "spatial"
        assert store.serve(1, 1) == "temporal"
        assert store.serve(1, 2) == "temporal"
        assert store.stats.warm == 2
        assert store.stats.cold == 1

    def test_gap_falls_back_then_reanchors(self):
        store = TemporalStateStore(capacity_bytes=100, bytes_per_session=10)
        store.serve(1, 0)
        # Frame 1 was shed: frame 2 has no contiguous state.
        assert store.serve(1, 2) == "spatial"
        # ...but re-anchors the session: frame 3 is warm again.
        assert store.serve(1, 3) == "temporal"

    def test_gap_reanchor_counted(self):
        store = TemporalStateStore(capacity_bytes=100, bytes_per_session=10)
        store.serve(1, 0)
        store.serve(1, 2)  # gap: shed frame 1
        assert store.stats.reanchors_gap == 1
        assert store.stats.reanchors_evicted == 0
        assert store.stats.reanchors == 1

    def test_eviction_readmission_counts_as_reanchor(self):
        # Regression: a session evicted under the byte cap used to come
        # back as an uncounted "fresh" cold frame — only gap re-anchors
        # were telemetered, understating the eviction cost.
        store = TemporalStateStore(capacity_bytes=20, bytes_per_session=10)
        store.serve(1, 0)
        store.serve(2, 0)
        store.serve(3, 0)  # evicts session 1
        assert store.stats.evictions == 1
        assert store.stats.reanchors_evicted == 0
        store.serve(1, 1)  # re-admission: contiguous frame, but state is gone
        assert store.stats.reanchors_evicted == 1
        assert store.stats.reanchors_gap == 0
        assert store.stats.reanchors == 1
        # The re-anchor re-admitted the session: next frame is warm.
        assert store.serve(1, 2) == "temporal"

    def test_first_frame_is_not_a_reanchor(self):
        store = TemporalStateStore(capacity_bytes=100, bytes_per_session=10)
        store.serve(1, 0)
        store.serve(2, 0)
        assert store.stats.cold == 2
        assert store.stats.reanchors == 0

    def test_drop_clears_displacement(self):
        # An evicted session that explicitly ends must not charge a
        # re-anchor if the same id is ever served again.
        store = TemporalStateStore(capacity_bytes=10, bytes_per_session=10)
        store.serve(1, 0)
        store.serve(2, 0)  # evicts session 1
        store.drop(1)
        store.serve(1, 5)
        assert store.stats.reanchors_evicted == 0

    def test_lru_eviction_order(self):
        store = TemporalStateStore(capacity_bytes=20, bytes_per_session=10)
        store.serve(1, 0)
        store.serve(2, 0)
        store.serve(1, 1)  # touch 1: session 2 is now LRU
        store.serve(3, 0)  # evicts session 2
        assert store.stats.evictions == 1
        assert store.is_warm(1, 2)
        assert not store.is_warm(2, 1)
        assert store.is_warm(3, 1)

    def test_zero_capacity_serves_everything_cold(self):
        store = TemporalStateStore(capacity_bytes=0, bytes_per_session=10)
        assert store.serve(1, 0) == "spatial"
        assert store.serve(1, 1) == "spatial"
        assert store.stats.warm == 0
        assert store.resident_sessions == 0

    def test_oversized_session_never_resident(self):
        store = TemporalStateStore(capacity_bytes=5, bytes_per_session=10)
        store.serve(1, 0)
        assert store.resident_sessions == 0
        assert store.serve(1, 1) == "spatial"

    def test_drop(self):
        store = TemporalStateStore(capacity_bytes=100, bytes_per_session=10)
        store.serve(1, 0)
        assert store.drop(1)
        assert not store.drop(1)
        assert store.serve(1, 1) == "spatial"

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            TemporalStateStore(-1, 10)
        with pytest.raises(ValueError, match="bytes_per_session"):
            TemporalStateStore(10, 0)


def _queued(arrival, admitted=None, deadline=float("inf"), sid=0, frame=0):
    return QueuedRequest(
        request=Request(session_id=sid, frame_index=frame, arrival_s=arrival),
        admitted_s=admitted if admitted is not None else arrival,
        deadline_s=deadline,
    )


class TestSchedulerPolicies:
    """The oracle's queue and batch policy (tests/oracles/serve.py)."""

    def test_bounded_queue_sheds_when_full(self):
        queue = BoundedQueue(2)
        assert queue.offer(_queued(0.0))
        assert queue.offer(_queued(0.1))
        assert queue.full
        assert not queue.offer(_queued(0.2))
        assert len(queue) == 2

    def test_pop_expired_drops_only_expired_head(self):
        queue = BoundedQueue(4)
        queue.offer(_queued(0.0, deadline=1.0))
        queue.offer(_queued(0.1, deadline=5.0))
        expired = queue.pop_expired(now=2.0)
        assert [q.deadline_s for q in expired] == [1.0]
        assert len(queue) == 1

    def test_take_is_fifo_and_bounded(self):
        queue = BoundedQueue(4)
        for t in (0.0, 0.1, 0.2):
            queue.offer(_queued(t))
        batch = queue.take(2)
        assert [q.admitted_s for q in batch] == [0.0, 0.1]
        assert len(queue) == 1

    def test_batch_ready_full_batch_or_wait_expiry(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=1.0)
        queue = BoundedQueue(4)
        assert not batch_ready(queue, policy, now=0.0)
        queue.offer(_queued(0.0))
        assert not batch_ready(queue, policy, now=0.5)  # young partial batch
        assert batch_ready(queue, policy, now=1.0)  # waited out
        queue.offer(_queued(0.9))
        assert batch_ready(queue, policy, now=0.95)  # full batch

    def test_next_deadline_check(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=1.5)
        queue = BoundedQueue(4)
        assert next_deadline_check(queue, policy) is None
        queue.offer(_queued(2.0))
        assert next_deadline_check(queue, policy) == 3.5


def _times(cold=1.0, warm=0.1, overhead=0.0, state_bytes=10, engine="Diffy"):
    return ServiceTimes(
        engine=engine,
        cold_s=cold,
        warm_s=warm,
        batch_overhead_s=overhead,
        state_bytes=state_bytes,
        frequency_ghz=1.0,
    )


def _spec(**kw):
    base = dict(
        duration_s=30.0,
        session_rate=0.4,
        frames_per_session=5,
        frame_interval_s=0.5,
        seed=42,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestInferenceService:
    """``serve_workload`` end to end (the shard engine on one node)."""

    def test_underload_serves_everything(self):
        reqs = generate_requests(_spec(session_rate=0.1))
        config = ServeConfig(workers=2, queue_capacity=32, deadline_s=10.0)
        report = serve_workload(reqs, _times(cold=0.05), config)
        m = report.metrics
        assert m["arrived"] == len(reqs)
        assert m["completed"] == len(reqs)
        assert report.shed_rate == 0.0
        assert m["good"] == len(reqs)

    def test_report_is_deterministic(self):
        reqs = generate_requests(_spec())
        config = ServeConfig(workers=2, state_capacity_bytes=100)
        a = serve_workload(reqs, _times(), config)
        b = serve_workload(reqs, _times(), config)
        assert a == b

    def test_overload_sheds_on_queue_full(self):
        reqs = generate_requests(_spec(session_rate=1.0))
        config = ServeConfig(workers=1, queue_capacity=2, deadline_s=100.0)
        report = serve_workload(reqs, _times(cold=2.0, warm=2.0), config)
        m = report.metrics
        assert m["shed_queue_full"] > 0
        assert m["completed"] + m["shed_queue_full"] + m["shed_deadline"] == m["arrived"]

    def test_deadline_shedding_accounted(self):
        # One slow worker, generous queue, tight deadline: queued requests
        # expire before a worker frees up and are shed at dispatch.
        reqs = generate_requests(_spec(session_rate=1.0))
        config = ServeConfig(workers=1, queue_capacity=16, deadline_s=0.5, max_batch=1)
        report = serve_workload(reqs, _times(cold=1.0, warm=1.0), config)
        assert report.metrics["shed_deadline"] > 0

    def test_batches_form_while_workers_busy(self):
        reqs = generate_requests(_spec(session_rate=1.0))
        config = ServeConfig(workers=1, max_batch=4, queue_capacity=16, deadline_s=50.0)
        report = serve_workload(reqs, _times(cold=0.5, warm=0.5), config)
        assert report.metrics["mean_batch_size"] > 1.0
        assert report.metrics["batches"] < report.metrics["completed"]

    def test_max_wait_holds_partial_batches(self):
        # A slow trickle with a wait window: batches still dispatch (via
        # the wait timer), and every admitted request completes.
        reqs = generate_requests(_spec(session_rate=0.05, frames_per_session=2))
        config = ServeConfig(
            workers=1,
            max_batch=4,
            max_wait_s=0.2,
            queue_capacity=8,
            deadline_s=10.0,
        )
        report = serve_workload(reqs, _times(cold=0.01, warm=0.01), config)
        m = report.metrics
        assert m["completed"] == m["admitted"] == m["arrived"]

    def test_warm_sessions_use_temporal_state(self):
        reqs = generate_requests(_spec(session_rate=0.1))
        config = ServeConfig(workers=2, deadline_s=10.0, state_capacity_bytes=1000)
        report = serve_workload(reqs, _times(cold=0.05, warm=0.01), config)
        assert report.warm_served > 0
        assert report.warm_fraction > 0.5  # 4 of 5 frames per session warm
        cold = serve_workload(
            reqs,
            _times(cold=0.05, warm=0.01),
            ServeConfig(workers=2, deadline_s=10.0, state_capacity_bytes=0),
        )
        assert cold.warm_served == 0

    def test_warm_state_admits_more_load_before_shedding(self):
        """The acceptance property: at a load the warm service absorbs
        with zero shedding, the cold service (temporal state disabled)
        already sheds — per-session state expands serviceable load."""
        times = _times(cold=1.0, warm=0.1)
        reqs = generate_requests(_spec(duration_s=60.0, session_rate=0.25, frame_interval_s=1.0))
        warm_cfg = ServeConfig(
            workers=1,
            queue_capacity=8,
            deadline_s=4.0,
            state_capacity_bytes=1000,
        )
        cold_cfg = ServeConfig(
            workers=1,
            queue_capacity=8,
            deadline_s=4.0,
            state_capacity_bytes=0,
        )
        warm = serve_workload(reqs, times, warm_cfg)
        cold = serve_workload(reqs, times, cold_cfg)
        assert warm.shed_rate == 0.0
        assert cold.shed_rate > 0.0
        assert warm.goodput_rps > cold.goodput_rps

    def test_duration_validated(self):
        with pytest.raises(ValueError):
            serve_workload([], _times(), ServeConfig(), duration_s=0.0)


class TestServeConfigValidation:
    """Non-integer counts and non-finite waits fail by name when the config
    is built: the engine would otherwise never return on them, or raise a
    bare ``TypeError`` deep inside a batch."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 1.5),
            ("max_batch", 2.5),
            ("queue_capacity", 2.5),
            ("max_wait_s", float("nan")),
            ("max_wait_s", float("inf")),
            ("state_capacity_bytes", 2.5),
        ],
    )
    def test_bad_value_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("workers", 0, "workers must be > 0"),
            ("workers", True, "workers must be an integer"),
            ("max_batch", 0, "max_batch must be > 0"),
            ("queue_capacity", -1, "queue_capacity must be > 0"),
            ("deadline_s", 0.0, "deadline_s must be > 0"),
            ("max_wait_s", -0.1, "max_wait_s must be finite and >= 0"),
            ("state_capacity_bytes", -1, "state_capacity_bytes must be >= 0"),
        ],
    )
    def test_out_of_range_value_fails_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ServeConfig(**{field: value})

    def test_numpy_integer_counts_pass(self):
        config = ServeConfig(
            workers=np.int64(3),
            max_batch=np.int32(2),
            queue_capacity=np.int16(8),
            state_capacity_bytes=np.int64(0),
        )
        assert (config.workers, config.max_batch, config.queue_capacity) == (3, 2, 8)


class TestServiceTimesModel:
    def test_request_s_and_validation(self):
        times = _times(cold=2.0, warm=0.5)
        assert times.request_s("spatial") == 2.0
        assert times.request_s("temporal") == 0.5
        with pytest.raises(ValueError, match="mode"):
            times.request_s("raw")

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="frames"):
            measure_service_times("IRCNN", frames=1)

    @pytest.mark.slow
    def test_measured_times_ordering(self):
        times = measure_service_times("IRCNN", crop=32, frames=2, resolution=(32, 32))
        assert set(times) == {"VAA", "PRA", "Diffy"}
        for t in times.values():
            assert t.cold_s > 0 and t.warm_s > 0 and t.batch_overhead_s > 0
        # The paper's ordering: Diffy beats PRA beats VAA, cold and warm.
        assert times["Diffy"].cold_s < times["PRA"].cold_s < times["VAA"].cold_s
        # Only differential engines gain from residency; VAA/PRA warm
        # times are just later-frame measurements of the same stream.
        assert times["Diffy"].warm_s <= times["Diffy"].cold_s
        assert times["VAA"].warm_s == pytest.approx(times["VAA"].cold_s, rel=0.05)

    @pytest.mark.slow
    def test_measured_times_deterministic(self, tmp_path, monkeypatch):
        kw = dict(crop=32, frames=2, resolution=(32, 32))
        a = measure_service_times("IRCNN", **kw)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        b = measure_service_times("IRCNN", **kw)
        for engine in a:
            assert a[engine] == b[engine]


class TestEndToEndDeterminism:
    def test_served_report_bit_identical_across_runs(self):
        spec = _spec(session_rate=0.5)
        times = _times(cold=0.4, warm=0.05, overhead=0.02)
        config = ServeConfig(
            workers=2,
            max_batch=3,
            max_wait_s=0.05,
            queue_capacity=8,
            deadline_s=2.0,
            state_capacity_bytes=50,
        )
        reports = [serve_workload(generate_requests(spec), times, config) for _ in range(2)]
        assert reports[0] == reports[1]
        snap = reports[0].metrics
        assert np.isfinite(snap["latency_ms"]["p99"])


class TestWaitTimerFloatSafety:
    def test_batch_ready_at_armed_expiry(self):
        # Find an (oldest, wait) pair where (oldest + w) - oldest rounds
        # below w; the timer armed at next_deadline_check must still see
        # the batch as ready when it fires, or the service livelocks.
        policy = None
        for oldest in (8.523686563597381, 0.1, 1.1, 3.3, 7.7, 123.456):
            for w in (0.35925007211451513, 0.1, 0.2, 0.3, 0.7):
                if (oldest + w) - oldest < w:
                    policy = BatchPolicy(max_batch=4, max_wait_s=w)
                    queue = BoundedQueue(4)
                    queue.offer(_queued(oldest))
                    expiry = next_deadline_check(queue, policy)
                    assert batch_ready(queue, policy, now=expiry)
        assert policy is not None, "no ulp-lossy pair found; extend the list"

    def test_service_terminates_with_fractional_wait(self):
        # End-to-end regression for the livelock: irrational-ish service
        # times and wait windows, single worker, partial batches.
        reqs = generate_requests(
            _spec(duration_s=57.48, session_rate=0.35, frame_interval_s=2.874, seed=53759)
        )
        config = ServeConfig(
            workers=2,
            max_batch=4,
            max_wait_s=0.359250072114515,
            queue_capacity=16,
            deadline_s=5.748,
            state_capacity_bytes=80,
        )
        report = serve_workload(reqs, _times(cold=1.437, warm=0.21), config)
        m = report.metrics
        assert m["completed"] + m["shed_queue_full"] + m["shed_deadline"] == m["arrived"]
