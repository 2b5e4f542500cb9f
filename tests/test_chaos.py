"""Tests for the chaos layer (repro.serve.chaos.*, ext_chaos)."""

import dataclasses

import numpy as np
import pytest

from repro.regression.serialize import canonical_dumps, to_jsonable
from repro.serve.chaos import (
    ChaosSpec,
    LadderPricing,
    NodeChaos,
    StorageChaos,
    generate_schedule,
    overload_requests,
    price_ladder,
    serve_ladder,
    storage,
)
from repro.serve.chaos.campaign import (
    ChaosPoint,
    chaos_grid,
    point_fault_seed,
    run_chaos_grid,
)
from repro.serve.chaos.schedule import BurstWindow
from repro.serve.chaos.telemetry import ChaosTelemetry
from repro.serve.fleet import FleetConfig, simulate_fleet
from repro.serve.fleet.shard import ShardStream, simulate_shard
from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig
from repro.serve.workload import (
    BURST_FRAMES,
    BURST_MOTION,
    WorkloadSpec,
    apply_scene_dynamics,
    generate_requests,
)
from repro.utils.rng import DEFAULT_SEED


def _times(cold=0.05, warm=0.01, overhead=0.004, state_bytes=1000, engine="Diffy"):
    return ServiceTimes(
        engine=engine,
        cold_s=cold,
        warm_s=warm,
        batch_overhead_s=overhead,
        state_bytes=state_bytes,
        frequency_ghz=1.0,
    )


def _node(**kw):
    base = dict(
        workers=2,
        max_batch=4,
        max_wait_s=0.0,
        queue_capacity=16,
        deadline_s=0.3,
        state_capacity_bytes=64000,
    )
    base.update(kw)
    return ServeConfig(**base)


def _spec(**kw):
    base = dict(
        duration_s=10.0,
        session_rate=8.0,
        frames_per_session=5,
        frame_interval_s=0.1,
        seed=7,
    )
    base.update(kw)
    return WorkloadSpec(**base)


def _pricing(p_clean=0.0, p_corrected=0.0, p_detected=0.0, p_silent=0.0, rate=1e-2):
    return LadderPricing(
        ladder="none",
        fault_model="flip1",
        rate=rate,
        trials=4,
        p_clean=p_clean,
        p_corrected=p_corrected,
        p_detected=p_detected,
        p_silent=p_silent,
        storage_overhead=1.0,
    )


class TestChaosSpecAndSchedule:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="storage_rate"):
            ChaosSpec(storage_rate=-1e-3)
        with pytest.raises(ValueError, match="crash_downtime_s"):
            ChaosSpec(crashes=1)
        with pytest.raises(ValueError, match="degrade_slowdown"):
            ChaosSpec(degrades=1, degrade_len_s=1.0, degrade_slowdown=0.5)
        with pytest.raises(ValueError, match="burst_load_mult"):
            ChaosSpec(bursts=1, burst_len_s=1.0, burst_load_mult=0.5)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"storage_rate": 1.5}, "storage_rate"),
            ({"storage_rate": float("nan")}, "storage_rate"),
            ({"storage_trials": 2.5}, "storage_trials must be an integer"),
            ({"storage_trials": 0}, "storage_trials must be > 0"),
            (
                {"storage_rate": 0.2, "bursts": 1, "burst_len_s": 1, "burst_fault_mult": 10},
                r"storage_rate \* burst_fault_mult",
            ),
        ],
    )
    def test_storage_knobs_fail_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ChaosSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"crashes": 1.5, "crash_downtime_s": 1.0}, "crashes"),
            ({"degrades": 1.5, "degrade_len_s": 1.0}, "degrades"),
            ({"bursts": 0.5, "burst_len_s": 1.0}, "bursts"),
        ],
    )
    def test_fractional_event_counts_fail_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ChaosSpec(**kwargs)

    @pytest.mark.parametrize("field", ["crashes", "degrades", "bursts"])
    def test_negative_event_counts_fail_at_construction(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            ChaosSpec(**{field: -1})

    def test_bool_event_count_fails_at_construction(self):
        with pytest.raises(ValueError, match="crashes must be an integer"):
            ChaosSpec(crashes=True, crash_downtime_s=1.0)

    def test_burst_rate_at_the_bound_is_accepted(self):
        spec = ChaosSpec(storage_rate=0.1, bursts=1, burst_len_s=1.0, burst_fault_mult=10.0)
        assert spec.storage_rate * spec.burst_fault_mult == 1.0

    def test_schedule_is_pure_function_of_spec(self):
        spec = ChaosSpec(
            crashes=2,
            crash_downtime_s=1.0,
            degrades=1,
            degrade_len_s=2.0,
            bursts=1,
            burst_len_s=2.0,
            seed=13,
        )
        a = generate_schedule(spec, 20.0, range(4))
        b = generate_schedule(spec, 20.0, range(4))
        assert a == b
        c = generate_schedule(dataclasses.replace(spec, seed=14), 20.0, range(4))
        assert c != a

    def test_events_land_inside_the_observable_window(self):
        spec = ChaosSpec(
            crashes=3,
            crash_downtime_s=0.5,
            degrades=3,
            degrade_len_s=1.0,
            bursts=3,
            burst_len_s=1.0,
            seed=3,
        )
        schedule = generate_schedule(spec, 100.0, range(4))
        starts = (
            [c.crash_s for c in schedule.crashes]
            + [d.start_s for d in schedule.degrades]
            + [b.start_s for b in schedule.bursts]
        )
        assert all(10.0 <= t <= 70.0 for t in starts)

    def test_per_node_crash_windows_never_overlap(self):
        spec = ChaosSpec(crashes=8, crash_downtime_s=5.0, seed=1)
        schedule = generate_schedule(spec, 40.0, range(2))
        for node in range(2):
            windows = sorted(
                (c.crash_s, c.restart_s) for c in schedule.crashes if c.node_id == node
            )
            for (_, end), (start, _) in zip(windows, windows[1:]):
                assert start >= end

    def test_node_events_need_nodes(self):
        spec = ChaosSpec(crashes=1, crash_downtime_s=1.0)
        with pytest.raises(ValueError, match="node id"):
            generate_schedule(spec, 10.0, [])

    def test_overload_requests_fill_burst_windows_only(self):
        spec = _spec(session_rate=20.0)
        chaos = ChaosSpec(bursts=2, burst_len_s=1.5, burst_load_mult=2.0, seed=5)
        schedule = generate_schedule(chaos, spec.duration_s, range(2))
        extra = overload_requests(spec, schedule, first_session_id=10**6)
        assert extra
        assert extra == overload_requests(spec, schedule, first_session_id=10**6)
        assert all(r.session_id >= 10**6 for r in extra)
        for r in extra:
            head = r.arrival_s - r.frame_index * spec.frame_interval_s
            assert any(w.start_s <= head < w.end_s for w in schedule.bursts)

    def test_overload_empty_without_extra_load(self):
        spec = _spec()
        chaos = ChaosSpec(bursts=1, burst_len_s=2.0, burst_load_mult=1.0, seed=5)
        schedule = generate_schedule(chaos, spec.duration_s, range(2))
        assert overload_requests(spec, schedule, first_session_id=10**6) == []


class TestLadderPricing:
    def test_unknown_ladder_raises(self):
        with pytest.raises(KeyError, match="unknown serve ladder"):
            serve_ladder("raid6")

    def test_zero_rate_is_all_clean_but_overhead_still_charged(self):
        for ladder in ("none", "full"):
            p = price_ladder(ladder, "flip1", 0.0, trials=8, seed=21, crop=16)
            assert p.p_clean == 1.0
            assert p.p_silent == 0.0
        none = price_ladder("none", "flip1", 0.0, trials=8, seed=21, crop=16)
        full = price_ladder("full", "flip1", 0.0, trials=8, seed=21, crop=16)
        assert none.storage_overhead == 1.0
        assert full.storage_overhead > 1.0

    def test_full_ladder_never_silent(self):
        p = price_ladder("full", "flip1", 1e-2, trials=16, seed=21, crop=16)
        assert p.p_silent == 0.0
        assert p.p_clean < 1.0

    def test_none_ladder_cannot_detect(self):
        p = price_ladder("none", "flip1", 1e-2, trials=16, seed=21, crop=16)
        assert p.p_detected == 0.0
        assert p.p_corrected == 0.0
        assert p.p_silent > 0.0

    @pytest.mark.parametrize(
        "rate, trials, match",
        [
            (2.0, 8, r"rate must be in \[0, 1\]"),
            (float("nan"), 8, r"rate must be in \[0, 1\]"),
            (-1e-3, 8, r"rate must be in \[0, 1\]"),
            (1e-2, 2.5, "trials must be an integer"),
            (1e-2, 0, "trials must be > 0"),
            (1e-2, True, "trials must be an integer"),
        ],
    )
    def test_bad_inputs_fail_before_pricing(self, monkeypatch, rate, trials, match):
        def never(*_args):
            raise AssertionError("a rejected input reached the pricing compute")

        monkeypatch.setattr(storage, "_price", never)
        with pytest.raises(ValueError, match=match):
            price_ladder("full", "flip1", rate, trials=trials, seed=21, crop=16)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _pricing(p_clean=0.5, p_silent=0.1)


class TestStorageChaos:
    def test_outcome_is_content_keyed_and_order_free(self):
        chaos = StorageChaos(seed=9, base=_pricing(p_clean=0.5, p_silent=0.5))
        draws = {(s, f): chaos.outcome(s, f, now=1.0) for s in range(40) for f in range(5)}
        for (s, f), outcome in sorted(draws.items(), reverse=True):
            assert chaos.outcome(s, f, now=7.5) == outcome
        assert len(set(draws.values())) == 2  # both outcomes actually occur

    def test_zero_rate_is_always_clean(self):
        chaos = StorageChaos(seed=9, base=_pricing(p_clean=1.0, rate=0.0))
        assert chaos.outcome(1, 2, now=0.5) == "clean"

    def test_burst_window_switches_pricing(self):
        chaos = StorageChaos(
            seed=9,
            base=_pricing(p_clean=1.0),
            burst=_pricing(p_detected=1.0),
            bursts=(BurstWindow(2.0, 4.0, 10.0, 1.0),),
        )
        assert chaos.outcome(1, 2, now=1.0) == "clean"
        assert chaos.outcome(1, 2, now=3.0) == "detected"
        assert chaos.outcome(1, 2, now=4.0) == "clean"


class TestChaosTelemetry:
    def test_merge_is_exact(self):
        a = ChaosTelemetry(duration_s=10.0)
        b = ChaosTelemetry(duration_s=10.0)
        a.on_storage("detected")
        a.record_serves([1.0], warm=[True], reanchor=[False])
        a.on_crash(shed=2, killed=1, lost=3)
        b.on_storage("silent")
        b.record_serves([9.0], warm=[False], reanchor=[True])
        b.on_recovery(0.25)
        a.merge(b)
        snap = a.snapshot()
        assert snap["warm_attempts"] == 2
        assert snap["storage_detected"] == 1
        assert snap["storage_silent"] == 1
        assert snap["sessions_lost"] == 3
        assert snap["sessions_recovered"] == 1
        assert sum(snap["warm_by_bucket"]) == 1
        assert sum(snap["reanchor_by_bucket"]) == 1

    def test_record_serves_buckets_like_the_scalar_rule(self):
        duration, buckets = 7.3, 24
        tel = ChaosTelemetry(duration_s=duration, buckets=buckets)
        rng = np.random.default_rng(4)
        edges = [k * duration / buckets for k in range(buckets + 1)]
        at = np.concatenate(
            [rng.uniform(-1.0, 2 * duration, 5000), edges, np.nextafter(edges, -np.inf), [-0.0]]
        )
        warm = rng.random(at.size) < 0.6
        reanchor = rng.random(at.size) < 0.5
        tel.record_serves(at, warm, reanchor)
        want = {k: np.zeros(buckets, dtype=np.int64) for k in ("warm", "cold", "reanchor")}
        for t, w, r in zip(at.tolist(), warm.tolist(), reanchor.tolist()):
            b = min(buckets - 1, max(0, int(t / duration * buckets)))
            if w:
                want["warm"][b] += 1
            else:
                want["cold"][b] += 1
                if r:
                    want["reanchor"][b] += 1
        assert tel.warm_by_bucket.tolist() == want["warm"].tolist()
        assert tel.cold_by_bucket.tolist() == want["cold"].tolist()
        assert tel.reanchor_by_bucket.tolist() == want["reanchor"].tolist()

    def test_merge_rejects_mismatched_windows(self):
        with pytest.raises(ValueError, match="different windows"):
            ChaosTelemetry(duration_s=10.0).merge(ChaosTelemetry(duration_s=5.0))

    def test_empty_recovery_serializes_to_zero_not_nan(self):
        snap = ChaosTelemetry(duration_s=10.0).snapshot()
        assert snap["recovery_ms"] == {"count": 0, "p50": 0.0, "p99": 0.0}


class TestShardChaos:
    def _stream(self, spec=None):
        return ShardStream(0, generate_requests(spec or _spec()), 0)

    def test_eventless_chaos_matches_no_chaos(self):
        stream, times, cfg = self._stream(), _times(), _node()
        plain = simulate_shard(stream, times, cfg)
        chaotic = simulate_shard(
            stream, times, cfg, chaos=NodeChaos(node_id=0, duration_s=10.0)
        )
        for name in ("arrived", "completed", "good", "shed_queue_full", "shed_deadline"):
            assert getattr(chaotic.telemetry, name) == getattr(plain.telemetry, name)
        assert chaotic.telemetry.busy_s == plain.telemetry.busy_s
        assert chaotic.state == plain.state
        assert plain.chaos is None
        snap = chaotic.chaos.snapshot()
        assert snap["crashes"] == 0
        assert snap["warm_attempts"] == 0
        assert sum(snap["warm_by_bucket"]) == chaotic.state.warm

    def test_crash_sheds_and_wipes_state(self):
        stream, times = self._stream(_spec(session_rate=20.0)), _times()
        cfg = _node(workers=1)
        chaos = NodeChaos(node_id=0, duration_s=10.0, down=((3.0, 5.0),))
        res = simulate_shard(stream, times, cfg, chaos=chaos)
        snap = res.chaos.snapshot()
        assert snap["crashes"] == 1
        assert snap["sessions_lost"] > 0
        assert snap["crash_shed"] + snap["killed_in_flight"] > 0
        assert res.state.reanchors_lost > 0
        # Every admitted request is accounted for exactly once.
        t = res.telemetry
        admitted = t.arrived - t.shed_queue_full
        assert (
            t.completed + t.shed_deadline + snap["crash_shed"] + snap["killed_in_flight"]
            == admitted
        )

    def test_degrade_window_slows_service(self):
        stream, times, cfg = self._stream(), _times(), _node()
        slow = NodeChaos(node_id=0, duration_s=10.0, degrade=((0.0, 10.0, 3.0),))
        plain = simulate_shard(stream, times, cfg)
        degraded = simulate_shard(stream, times, cfg, chaos=slow)
        assert degraded.telemetry.busy_s > plain.telemetry.busy_s
        assert degraded.telemetry.good <= plain.telemetry.good

    def test_detected_storage_faults_force_reanchors(self):
        stream, times, cfg = self._stream(), _times(), _node()
        storage = StorageChaos(seed=3, base=_pricing(p_detected=1.0))
        res = simulate_shard(
            stream, times, cfg, chaos=NodeChaos(0, 10.0, storage=storage)
        )
        snap = res.chaos.snapshot()
        assert snap["warm_attempts"] > 0
        assert snap["storage_detected"] == snap["warm_attempts"]
        assert snap["storage_silent"] == 0
        assert res.state.warm == 0  # every warm-eligible read was invalidated

    def test_silent_storage_faults_serve_warm_unknowingly(self):
        stream, times, cfg = self._stream(), _times(), _node()
        storage = StorageChaos(seed=3, base=_pricing(p_silent=1.0))
        res = simulate_shard(
            stream, times, cfg, chaos=NodeChaos(0, 10.0, storage=storage)
        )
        snap = res.chaos.snapshot()
        assert snap["storage_silent"] == snap["warm_attempts"] > 0
        assert res.state.warm > 0  # nothing flagged, so nothing re-anchored

    def test_storage_overhead_shrinks_residency(self):
        stream, times = self._stream(_spec(session_rate=20.0)), _times()
        cfg = _node(state_capacity_bytes=8000)
        fat = StorageChaos(
            seed=3, base=dataclasses.replace(_pricing(p_clean=1.0), storage_overhead=4.0)
        )
        plain = simulate_shard(stream, times, cfg)
        protected = simulate_shard(
            stream, times, cfg, chaos=NodeChaos(0, 10.0, storage=fat)
        )
        assert protected.state.evictions > plain.state.evictions
        assert protected.state.warm < plain.state.warm


class TestSceneDynamics:
    def test_zero_probability_is_identity(self):
        reqs = generate_requests(_spec())
        assert apply_scene_dynamics(reqs, seed=7) == list(reqs)

    def test_cuts_are_deterministic_and_never_on_session_heads(self):
        reqs = generate_requests(_spec())
        a = apply_scene_dynamics(reqs, cut_probability=0.3, burst_probability=0.2, seed=7)
        b = apply_scene_dynamics(reqs, cut_probability=0.3, burst_probability=0.2, seed=7)
        assert a == b
        assert any(r.scene_cut for r in a)
        assert all(not r.scene_cut for r in a if r.frame_index == 0)
        assert any(r.motion > 1.0 for r in a)

    def test_bursts_hold_burst_motion_for_burst_frames(self):
        spec = _spec(frames_per_session=12)
        reqs = apply_scene_dynamics(generate_requests(spec), burst_probability=0.1, seed=7)
        by_session = {}
        for r in reqs:
            by_session.setdefault(r.session_id, []).append(r)
        runs = 0
        for frames in by_session.values():
            frames.sort(key=lambda r: r.frame_index)
            motions = [r.motion for r in frames]
            assert set(motions) <= {1.0, BURST_MOTION}
            # A burst never ends early: each run of burst frames is at
            # least BURST_FRAMES long unless the clip ends first.
            f = 0
            while f < len(motions):
                if motions[f] == 1.0:
                    f += 1
                    continue
                end = f
                while end < len(motions) and motions[end] == BURST_MOTION:
                    end += 1
                assert end - f >= BURST_FRAMES or end == len(motions)
                runs += 1
                f = end
        assert runs > 0

    def test_reanchors_spike_at_scene_cuts(self):
        # The satellite regression: with no shed/eviction pressure, every
        # cut frame re-anchors (cold) where it would have served warm.
        reqs = generate_requests(_spec())
        cut = apply_scene_dynamics(reqs, cut_probability=0.25, seed=7)
        cfg = _node(workers=8, queue_capacity=512, deadline_s=100.0, state_capacity_bytes=10**9)
        plain = simulate_shard(ShardStream(0, reqs, 0), _times(), cfg)
        cuts = simulate_shard(ShardStream(0, cut, 0), _times(), cfg)
        n_cuts = sum(r.scene_cut for r in cut)
        assert n_cuts > 0
        assert plain.state.reanchors_cut == 0
        assert cuts.state.reanchors_cut == n_cuts
        assert cuts.state.warm == plain.state.warm - n_cuts

    def test_motion_prices_into_warm_service_time(self):
        times = _times(cold=0.05, warm=0.01)
        assert times.request_s("temporal", 1.0) == times.warm_s
        assert times.request_s("temporal", 2.0) == pytest.approx(0.02)
        # Extreme motion can never cost more than a cold frame.
        assert times.request_s("temporal", 100.0) == times.cold_s


class TestFleetChaos:
    def _chaos_spec(self, **kw):
        base = dict(
            storage_rate=1e-2,
            protection="none",
            storage_trials=8,
            crashes=1,
            crash_downtime_s=2.0,
            seed=5,
        )
        base.update(kw)
        return ChaosSpec(**base)

    @pytest.mark.parametrize("protection", ["none", "full"])
    def test_cold_chaos_runs_byte_identical(self, protection):
        reqs = generate_requests(_spec(session_rate=15.0))
        cfg = FleetConfig(
            nodes=3,
            routing="state_aware",
            node=_node(),
            chaos=self._chaos_spec(protection=protection),
            seed=5,
        )
        first = simulate_fleet(reqs, _times(), cfg, 10.0)
        second = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert first.chaos["crashes"] == 1
        assert canonical_dumps(to_jsonable(first)) == canonical_dumps(to_jsonable(second))

    def test_event_free_chaos_spec_leaves_serving_untouched(self):
        reqs = generate_requests(_spec())
        node = _node()
        plain = simulate_fleet(
            reqs, _times(), FleetConfig(nodes=2, node=node, seed=5), 10.0
        )
        nulled = simulate_fleet(
            reqs,
            _times(),
            FleetConfig(nodes=2, node=node, chaos=ChaosSpec(seed=5), seed=5),
            10.0,
        )
        assert plain.chaos is None
        assert nulled.chaos is not None
        assert nulled.metrics == plain.metrics
        assert nulled.warm_served == plain.warm_served
        assert nulled.cold_served == plain.cold_served

    def test_crash_is_visible_in_fleet_report(self):
        reqs = generate_requests(_spec(session_rate=15.0))
        cfg = FleetConfig(
            nodes=3,
            routing="state_aware",
            node=_node(),
            chaos=self._chaos_spec(storage_rate=0.0),
            seed=5,
        )
        rep = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert rep.chaos["crashes"] == 1
        assert rep.chaos["sessions_lost"] > 0

    def test_full_ladder_serves_no_silent_corruption(self):
        reqs = generate_requests(_spec(session_rate=15.0))

        def fleet(protection):
            cfg = FleetConfig(
                nodes=2,
                routing="state_aware",
                node=_node(),
                chaos=self._chaos_spec(crashes=0, protection=protection),
                seed=5,
            )
            return simulate_fleet(reqs, _times(), cfg, 10.0)

        unprotected = fleet("none")
        protected = fleet("full")
        assert unprotected.chaos["storage_silent"] > 0
        assert unprotected.chaos["storage_detected"] == 0
        assert protected.chaos["storage_silent"] == 0
        assert protected.chaos["storage_detected"] > 0
        assert protected.reanchors_lost > 0  # detections became re-anchors

    def test_unknown_ladder_fails_fast(self):
        with pytest.raises(KeyError, match="unknown serve ladder"):
            FleetConfig(nodes=2, chaos=ChaosSpec(protection="raid6"))


class TestChaosCampaign:
    POINTS = (("none", 0.0), ("none", 1e-2), ("full", 0.0), ("full", 1e-2))

    def _grid(self, points=None):
        reqs = generate_requests(_spec(session_rate=12.0))
        times = {"Diffy": _times()}
        pts = points or chaos_grid(("Diffy",), ("none", "full"), (0.0, 1e-2))
        template = ChaosSpec(crashes=1, crash_downtime_s=1.5, storage_trials=8, seed=11)
        return run_chaos_grid(reqs, times, pts, template, _node(), 10.0, nodes=2, seed=11)

    def test_grid_fails_fast_on_unknown_ladder(self):
        with pytest.raises(KeyError, match="unknown serve ladder"):
            chaos_grid(("Diffy",), ("raid6",), (0.0,))

    def test_point_fault_seeds_are_distinct_per_coordinate(self):
        points = chaos_grid(("VAA", "Diffy"), ("none", "full"), (0.0, 1e-3))
        seeds = [point_fault_seed(11, p) for p in points]
        assert len(set(seeds)) == len(points)
        assert point_fault_seed(11, points[0]) != point_fault_seed(12, points[0])

    @pytest.fixture(scope="class")
    def full_grid(self):
        return self._grid()

    @pytest.mark.parametrize("ladder, rate", POINTS)
    def test_point_alone_matches_point_in_full_grid(self, full_grid, ladder, rate):
        # A point's fault pattern depends only on its coordinate, not on
        # which other points ran before it.
        (alone,) = self._grid(points=(ChaosPoint("Diffy", ladder, rate),)).cells
        if rate > 0:  # the fault draws really moved the cell
            assert alone.storage_corrected + alone.storage_detected + alone.storage_silent > 0
        in_grid = full_grid.cell("Diffy", ladder, rate)
        assert canonical_dumps(to_jsonable(alone)) == canonical_dumps(to_jsonable(in_grid))

    def test_reversed_grid_gives_the_same_cells(self, full_grid):
        points = chaos_grid(("Diffy",), ("none", "full"), (0.0, 1e-2))
        backwards = self._grid(points=tuple(reversed(points)))
        assert [canonical_dumps(to_jsonable(c)) for c in backwards.cells] == [
            canonical_dumps(to_jsonable(c)) for c in reversed(full_grid.cells)
        ]

    def test_cells_preserve_grid_order_and_fault_seed(self):
        result = self._grid()
        assert [(c.ladder, c.rate) for c in result.cells] == list(self.POINTS)
        for cell in result.cells:
            point = ChaosPoint(cell.engine, cell.ladder, cell.rate)
            assert cell.fault_seed == point_fault_seed(11, point)


class TestExtChaosStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments import ext_chaos

        return ext_chaos.run(
            model="DnCNN",
            crop=32,
            seed=DEFAULT_SEED,
            ladders=("none", "full"),
            rates=(0.0, 1e-3),
            nodes=2,
            duration_units=20.0,
        )

    def test_grid_complete(self, study):
        assert len(study.cells) == 2 * 2 * 2
        assert study.cell("Diffy", "full", 1e-3).ladder == "full"
        with pytest.raises(KeyError):
            study.cell("Diffy", "full", 0.5)

    def test_golden_properties_populated(self, study):
        assert study.silent_under_full == 0
        assert set(study.goodput_by_ladder) == {"none", "full"}
        assert set(study.warm_monotone_by_ladder) == {"none", "full"}
        recovery = study.crash_recovery
        assert set(recovery) >= {"spiked", "recovered", "reanchors_in_storm"}

    def test_serializable(self, study):
        dump = canonical_dumps(to_jsonable(study))
        assert "silent_under_full" in dump

    def test_requires_vaa(self):
        from repro.experiments import ext_chaos

        with pytest.raises(ValueError, match="VAA"):
            ext_chaos.run(model="DnCNN", crop=32, seed=DEFAULT_SEED, engines=("Diffy",))
