"""Tests for fleet-scale serving (repro.serve.fleet.*, ext_fleet)."""

import dataclasses
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.fleet.service as fleet_service
from repro.regression.serialize import canonical_dumps, to_jsonable
from repro.serve.fleet import (
    ROUTING_POLICIES,
    AutoscalePolicy,
    Autoscaler,
    FleetConfig,
    make_router,
    route_requests,
    simulate_fleet,
)
from repro.serve.fleet.shard import ShardStream, simulate_shard
from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig, serve_workload
from repro.serve.workload import (
    Request,
    WorkloadSpec,
    generate_diurnal_requests,
    generate_requests,
)
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED
from tests.oracles import InferenceService


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
        state_capacity_bytes=8000,
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


def _canonical(report) -> str:
    return canonical_dumps(to_jsonable(report))


class TestShardEquivalence:
    """The shard engine IS the per-event oracle, greedy or waiting."""

    INT_COUNTERS = (
        "arrived",
        "admitted",
        "shed_queue_full",
        "shed_deadline",
        "completed",
        "good",
        "late",
        "batches",
        "max_queue_depth",
    )

    def _assert_equivalent(self, cfg, spec, times):
        reqs = generate_requests(spec)
        ref = InferenceService(times, cfg)
        report = ref.run(reqs, spec.duration_s)
        res = simulate_shard(ShardStream(0, reqs, 0), times, cfg)
        for name in self.INT_COUNTERS:
            assert getattr(res.telemetry, name) == getattr(ref.telemetry, name), name
        # Histogram counts are bit-identical, so percentiles are too.
        assert res.telemetry.latency.counts == ref.telemetry.latency.counts
        assert res.telemetry.batch_sizes.counts == ref.telemetry.batch_sizes.counts
        assert res.telemetry.queue_depths.counts == ref.telemetry.queue_depths.counts
        # Both engines accumulate busy time in dispatch order and
        # latencies in completion order: the float totals are exact.
        assert res.telemetry.busy_s == ref.telemetry.busy_s
        assert res.telemetry.latency.total == ref.telemetry.latency.total
        counters = ("warm", "cold", "insertions", "evictions", "reanchors_gap", "reanchors_evicted")
        for name in counters:
            assert getattr(res.state, name) == getattr(ref.state.stats, name), name
        served = serve_workload(reqs, times, cfg, duration_s=spec.duration_s)
        assert _canonical(served) == _canonical(report)
        return report

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("rate", [2.0, 10.0, 40.0])
    def test_telemetry_identical_across_loads(self, seed, rate):
        process = "bursty" if seed % 2 else "poisson"
        self._assert_equivalent(
            _node(), _spec(session_rate=rate, seed=seed, process=process), _times()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate", [2.0, 10.0, 40.0])
    @pytest.mark.parametrize("wait", [0.002, 0.01, 0.05])
    def test_telemetry_identical_with_wait_timer(self, seed, rate, wait):
        process = "bursty" if seed % 2 else "poisson"
        report = self._assert_equivalent(
            _node(max_wait_s=wait),
            _spec(session_rate=rate, seed=seed, process=process),
            _times(),
        )
        assert report.metrics["completed"] > 0

    def test_wait_timer_fractional_wait(self):
        # The float-ulp livelock workload: (oldest + w) - oldest rounds
        # below w, so the timer must test readiness with its own expiry
        # expression or it re-arms at the same instant forever.
        spec = WorkloadSpec(
            duration_s=57.48,
            session_rate=0.35,
            frames_per_session=5,
            frame_interval_s=2.874,
            seed=53759,
        )
        cfg = _node(
            max_wait_s=0.359250072114515,
            deadline_s=5.748,
            state_capacity_bytes=80,
        )
        self._assert_equivalent(cfg, spec, _times(cold=1.437, warm=0.21, state_bytes=10))

    def test_wait_timer_under_shedding_pressure(self):
        # Deadlines shorter than the wait and a queue smaller than a
        # batch: expired requests shed at every dispatch attempt,
        # including arrivals that find the node waiting for a batch.
        cfg = _node(workers=1, queue_capacity=3, deadline_s=0.02, max_wait_s=0.03)
        report = self._assert_equivalent(cfg, _spec(session_rate=30.0), _times(cold=0.08))
        assert report.metrics["shed_deadline"] > 0
        assert report.metrics["shed_queue_full"] > 0

    def test_arrivals_tied_with_completions_and_timer(self):
        # Dyadic times make arrivals, completions and wait expiries land
        # on identical floats: arrivals fire first, then completions in
        # dispatch order, then the wait timer.
        spec = _spec(duration_s=8.0, session_rate=6.0, frame_interval_s=0.125)
        reqs = [
            dataclasses.replace(r, arrival_s=round(r.arrival_s * 8) / 8)
            for r in generate_requests(spec)
        ]
        reqs.sort(key=lambda r: r.arrival_s)
        times = _times(cold=0.25, warm=0.125, overhead=0.0)
        for wait in (0.0, 0.125, 0.25):
            cfg = _node(max_wait_s=wait, deadline_s=1.0, workers=1)
            ref = InferenceService(times, cfg).run(reqs, 8.0)
            served = serve_workload(reqs, times, cfg, duration_s=8.0)
            assert _canonical(served) == _canonical(ref), wait
            assert ref.metrics["completed"] > 0

    def test_batch_overhead_prices_every_batch(self):
        # Every dispatched batch pays the measured per-batch weight load,
        # in the shard engine, the single-node service and a 1-node fleet.
        reqs = generate_requests(_spec())
        cfg = _node(workers=8, queue_capacity=512, deadline_s=100.0)
        free = simulate_shard(ShardStream(0, reqs, 0), _times(overhead=0.0), cfg)
        paid = simulate_shard(ShardStream(0, reqs, 0), _times(overhead=0.002), cfg)
        ref = InferenceService(_times(overhead=0.002), cfg)
        ref.run(reqs, 10.0)
        assert paid.telemetry.busy_s == ref.telemetry.busy_s
        # With idle workers to spare, batches form identically either way.
        assert paid.telemetry.batch_sizes.counts == free.telemetry.batch_sizes.counts
        batches = paid.telemetry.batches
        assert batches > 0
        assert paid.telemetry.busy_s - free.telemetry.busy_s == pytest.approx(0.002 * batches)
        served = serve_workload(reqs, _times(overhead=0.002), cfg, duration_s=10.0)
        fleet = simulate_fleet(reqs, _times(overhead=0.002), FleetConfig(nodes=1, node=cfg), 10.0)
        assert served.batch_overhead_s == 0.002
        assert fleet.metrics["utilization"] == served.metrics["utilization"]

    def test_telemetry_identical_under_shedding_pressure(self):
        cfg = _node(workers=1, queue_capacity=3, deadline_s=0.1, state_capacity_bytes=3000)
        self._assert_equivalent(cfg, _spec(session_rate=30.0), _times(cold=0.08))

    def test_telemetry_identical_without_state(self):
        self._assert_equivalent(_node(state_capacity_bytes=0), _spec(), _times())

    def test_empty_stream(self):
        res = simulate_shard(ShardStream(3, [], 0), _times(), _node())
        assert res.telemetry.arrived == 0
        assert res.state.warm == res.state.cold == 0
        assert res.chaos is None and res.calib is None

    def test_shard_records_through_record_values(self, monkeypatch):
        # perfbench attributes serve.telemetry_s by wrapping record_values,
        # so the shard must record there, once per histogram, and never
        # through the per-sample record.
        calls = []
        record_values = timing.StreamingHistogram.record_values

        def counting(hist, values):
            calls.append(len(values))
            record_values(hist, values)

        def per_sample(hist, value, weight=1):
            raise AssertionError("the shard recorded a single sample")

        monkeypatch.setattr(timing.StreamingHistogram, "record_values", counting)
        monkeypatch.setattr(timing.StreamingHistogram, "record", per_sample)
        reqs = generate_requests(_spec())
        res = simulate_shard(ShardStream(0, reqs, 0), _times(), _node())
        t = res.telemetry
        assert sorted(calls) == sorted([t.arrived, t.batches, t.completed])
        assert t.completed > 0

    def test_wait_batching_forms_partial_batches(self):
        # Light load: greedy dispatch serves nearly every request alone,
        # while a wait window co-batches requests the greedy node would
        # have started at once.
        reqs = generate_requests(_spec(session_rate=4.0))
        stream = ShardStream(0, reqs, 0)
        greedy = simulate_shard(stream, _times(), _node())
        waiting = simulate_shard(stream, _times(), _node(max_wait_s=0.05))
        assert waiting.telemetry.completed == greedy.telemetry.completed == len(reqs)
        assert waiting.telemetry.batches < greedy.telemetry.batches

    def test_stream_validation(self):
        reqs = [Request(1, 0, 1.0), Request(1, 1, 0.0)]
        with pytest.raises(ValueError, match="arrival_s must be sorted"):
            serve_workload(reqs, _times(), _node())
        with pytest.raises(ValueError, match="arrival_s must be sorted"):
            simulate_fleet(reqs, _times(), FleetConfig(nodes=2, node=_node()))

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stream_rejects_non_finite_arrivals(self, bad, at):
        # NaN passes the sortedness test (every comparison is False), so
        # it must be caught by name at the entry point, not deep in the
        # event loop; first in the stream it would otherwise become the
        # default duration.
        arrivals = [0.0, 1.0, 2.0]
        arrivals[at] = bad
        reqs = [Request(1, f, t) for f, t in enumerate(arrivals)]
        with pytest.raises(ValueError, match="arrival_s must be finite"):
            serve_workload(reqs, _times(), _node())
        with pytest.raises(ValueError, match="arrival_s must be finite"):
            simulate_fleet(reqs, _times(), FleetConfig(nodes=2, node=_node()))


def _telemetry_state(t) -> tuple:
    """Every ServeTelemetry field; ``repr`` pins the float bits."""
    hists = tuple(
        (h.counts, h.n, repr(h.total), repr(h.vmin), repr(h.vmax))
        for h in (t.latency, t.batch_sizes, t.queue_depths)
    )
    counters = tuple(getattr(t, name) for name in TestShardEquivalence.INT_COUNTERS)
    return hists + counters + (repr(t.busy_s),)


class TestTelemetryFold:
    """The shard's once-per-shard fold equals the oracle's per-event hooks."""

    @staticmethod
    def _fold_and_oracle(reqs, cfg, times, duration_s=10.0):
        ref = InferenceService(times, cfg)
        ref.run(reqs, duration_s)
        res = simulate_shard(ShardStream(0, reqs, 0), times, cfg)
        assert _telemetry_state(res.telemetry) == _telemetry_state(ref.telemetry)
        return res.telemetry

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rate=st.floats(0.5, 40.0),
        process=st.sampled_from(["poisson", "bursty"]),
        workers=st.integers(1, 3),
        max_batch=st.integers(1, 6),
        wait=st.sampled_from([0.0, 0.003, 0.02, 0.1]),
        capacity=st.integers(1, 20),
        deadline=st.floats(0.005, 1.0),
        state_capacity=st.sampled_from([0, 2000, 8000]),
        cold=st.floats(0.005, 0.2),
    )
    def test_fold_equals_per_event_hooks(
        self,
        seed,
        rate,
        process,
        workers,
        max_batch,
        wait,
        capacity,
        deadline,
        state_capacity,
        cold,
    ):
        spec = _spec(duration_s=5.0, session_rate=rate, seed=seed, process=process)
        cfg = _node(
            workers=workers,
            max_batch=max_batch,
            max_wait_s=wait,
            queue_capacity=capacity,
            deadline_s=deadline,
            state_capacity_bytes=state_capacity,
        )
        self._fold_and_oracle(generate_requests(spec), cfg, _times(cold=cold), 5.0)

    def test_empty_shard(self):
        t = self._fold_and_oracle([], _node(), _times())
        assert t.arrived == 0 and t.latency.n == 0 and t.busy_s == 0.0

    def test_all_shed_stream(self):
        # A batch never fills (max_batch > queue capacity) and the wait
        # outlasts the deadline: every request is shed, none completes.
        cfg = _node(workers=1, max_batch=8, queue_capacity=4, max_wait_s=1.0, deadline_s=0.01)
        t = self._fold_and_oracle(generate_requests(_spec(session_rate=20.0)), cfg, _times())
        assert t.arrived > 0 and t.shed == t.arrived
        assert t.shed_queue_full > 0 and t.shed_deadline > 0
        assert t.completed == t.batches == t.latency.n == 0


class TestRouteRequests:
    def test_partition_is_exact(self):
        reqs = generate_requests(_spec())
        outcome = route_requests(reqs, _times(), FleetConfig(nodes=4, routing="hash"))
        routed = [r for s in outcome.streams for r in s.requests]
        key = attrgetter("arrival_s", "session_id", "frame_index")
        assert sorted(routed, key=key) == sorted(reqs, key=key)
        assert [s.node_id for s in outcome.streams] == sorted(s.node_id for s in outcome.streams)
        for stream in outcome.streams:
            arr = [r.arrival_s for r in stream.requests]
            assert arr == sorted(arr)

    def test_sticky_policies_never_migrate_static_fleet(self):
        reqs = generate_requests(_spec())
        for policy in ("hash", "state_aware"):
            outcome = route_requests(reqs, _times(), FleetConfig(nodes=4, routing=policy))
            assert outcome.migrations == 0, policy

    def test_scatter_policies_migrate(self):
        reqs = generate_requests(_spec())
        for policy in ("random", "least_loaded"):
            outcome = route_requests(reqs, _times(), FleetConfig(nodes=4, routing=policy))
            assert outcome.migrations > 0, policy

    def test_migrated_in_sums_to_migrations(self):
        reqs = generate_requests(_spec())
        outcome = route_requests(reqs, _times(), FleetConfig(nodes=4, routing="random"))
        assert sum(s.migrated_in for s in outcome.streams) == outcome.migrations
        assert outcome.migrations > 0

    def test_out_of_order_stream_rejected_before_routing(self):
        # Each node's share of this stream is sorted, so only a check of
        # the whole stream catches it going back in time.
        reqs = [Request(0, 0, 5.0), Request(1, 0, 1.0), Request(0, 1, 6.0), Request(1, 1, 2.0)]
        cfg = FleetConfig(nodes=2, routing="hash", node=_node())
        shares = [
            [r.arrival_s for r in s.requests]
            for s in route_requests(sorted(reqs, key=lambda r: r.arrival_s), _times(), cfg).streams
        ]
        assert {tuple(a) for a in shares} == {(1.0, 2.0), (5.0, 6.0)}
        with pytest.raises(ValueError, match="arrival_s"):
            route_requests(reqs, _times(), cfg)
        with pytest.raises(ValueError, match="arrival_s"):
            simulate_fleet(reqs, _times(), cfg)

    def test_non_finite_arrival_rejected_before_routing(self):
        reqs = generate_requests(_spec())
        reqs[len(reqs) // 2] = dataclasses.replace(reqs[len(reqs) // 2], arrival_s=float("nan"))
        timing.reset("fleet.route")
        with pytest.raises(ValueError, match="arrival_s must be finite"):
            simulate_fleet(reqs, _times(), FleetConfig(nodes=2, node=_node()), 10.0)
        assert "fleet.route" not in timing.timer_stats()


class TestFleetSimulation:
    def test_cold_runs_byte_identical(self):
        reqs = generate_requests(_spec())
        cfg = FleetConfig(nodes=4, routing="state_aware", node=_node())
        a = simulate_fleet(reqs, _times(), cfg, 10.0)
        b = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert canonical_dumps(to_jsonable(a)) == canonical_dumps(to_jsonable(b))

    def test_shard_error_propagates_without_retry(self, monkeypatch):
        calls = []

        def failing_shard(stream, *args, **kwargs):
            calls.append(stream.node_id)
            raise RuntimeError("injected shard failure")

        monkeypatch.setattr(fleet_service, "simulate_shard", failing_shard)
        reqs = generate_requests(_spec())
        with pytest.raises(RuntimeError, match="injected shard failure"):
            simulate_fleet(reqs, _times(), FleetConfig(nodes=2, node=_node()), 10.0)
        assert calls == [0]

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_shards_run_once_each_in_ascending_node_order(self, monkeypatch, policy):
        calls = []

        def recording_shard(stream, *args, **kwargs):
            calls.append(stream.node_id)
            return simulate_shard(stream, *args, **kwargs)

        monkeypatch.setattr(fleet_service, "simulate_shard", recording_shard)
        reqs = generate_requests(_spec(session_rate=15.0))
        cfg = FleetConfig(nodes=4, routing=policy, node=_node())
        report = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert calls == sorted(set(calls))
        assert calls == [n.node_id for n in report.node_reports]

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_node_reports_match_shards_run_alone(self, policy):
        # Shards share no state: each node's report is its routed substream
        # served on its own, here in descending node order.
        reqs = generate_requests(_spec(session_rate=15.0))
        cfg = FleetConfig(nodes=4, routing=policy, node=_node())
        fleet = simulate_fleet(reqs, _times(), cfg, 10.0)
        streams = {s.node_id: s for s in route_requests(reqs, _times(), cfg).streams}
        alone = {n: simulate_shard(s, _times(), cfg.node) for n, s in reversed(streams.items())}
        assert sorted(alone) == [n.node_id for n in fleet.node_reports]
        for node in fleet.node_reports:
            res, stream = alone[node.node_id], streams[node.node_id]
            assert (node.routed, node.migrated_in) == (len(stream.requests), stream.migrated_in)
            assert (node.completed, node.shed) == (res.telemetry.completed, res.telemetry.shed)
            assert (node.warm_served, node.cold_served) == (res.state.warm, res.state.cold)

    def test_shard_pass_is_timed_once_per_run(self):
        reqs = generate_requests(_spec())
        cfg = FleetConfig(nodes=2, node=_node())
        before = timing.timer_stats().get("fleet.shards", timing.TimerStat()).calls
        simulate_fleet(reqs, _times(), cfg, 10.0)
        assert timing.timer_stats()["fleet.shards"].calls == before + 1

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("-inf")])
    def test_duration_must_be_positive(self, duration):
        reqs = generate_requests(_spec())
        with pytest.raises(ValueError, match="duration_s"):
            simulate_fleet(reqs, _times(), FleetConfig(nodes=2, node=_node()), duration)

    def test_fleet_matches_single_service_at_one_node(self):
        # A 1-node fleet is exactly the single-node service (any policy
        # collapses; the shard engine is DES-equivalent).
        reqs = generate_requests(_spec())
        cfg = FleetConfig(nodes=1, routing="hash", node=_node())
        fleet = simulate_fleet(reqs, _times(), cfg, 10.0)
        report = InferenceService(_times(), _node()).run(reqs, 10.0)
        assert fleet.metrics == report.metrics
        assert fleet.warm_served == report.warm_served
        assert fleet.migrations == 0

    def test_fleet_matches_single_service_with_wait_timer(self):
        reqs = generate_requests(_spec())
        node = _node(max_wait_s=0.02)
        fleet = simulate_fleet(reqs, _times(), FleetConfig(nodes=1, node=node), 10.0)
        report = serve_workload(reqs, _times(), node, duration_s=10.0)
        assert fleet.metrics == report.metrics
        assert fleet.warm_served == report.warm_served
        assert fleet.cold_served == report.cold_served

    def test_request_conservation(self):
        reqs = generate_requests(_spec(session_rate=25.0))
        cfg = FleetConfig(nodes=3, routing="least_loaded", node=_node(queue_capacity=4))
        rep = simulate_fleet(reqs, _times(), cfg, 10.0)
        m = rep.metrics
        assert m["arrived"] == len(reqs)
        assert m["completed"] + m["shed_queue_full"] + m["shed_deadline"] == m["arrived"]
        assert sum(n.routed for n in rep.node_reports) == len(reqs)

    def test_migrations_become_cold_reanchors(self):
        # Every router-observed migration must show up on the nodes as a
        # cold serve (the session's state is on the wrong machine).
        reqs = generate_requests(_spec())
        cfg = FleetConfig(nodes=4, routing="random", node=_node(state_capacity_bytes=10**9))
        rep = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert rep.migrations > 0
        # With no eviction/shed pressure, cold serves = session heads +
        # migration re-anchors exactly.
        sessions = len({r.session_id for r in reqs})
        assert rep.cold_served == sessions + rep.migrations

    def test_state_aware_beats_scatter_on_warm_fraction(self):
        reqs = generate_requests(_spec(session_rate=20.0))
        node = _node()
        reports = {
            policy: simulate_fleet(
                reqs, _times(), FleetConfig(nodes=4, routing=policy, node=node), 10.0
            )
            for policy in ("random", "state_aware")
        }
        assert reports["state_aware"].warm_fraction > reports["random"].warm_fraction

    def test_config_validation(self):
        with pytest.raises(ValueError, match="routing"):
            FleetConfig(nodes=2, routing="round_robin")
        with pytest.raises(ValueError, match="max_wait_s"):
            FleetConfig(nodes=2, node=_node(max_wait_s=-0.1))
        with pytest.raises(ValueError, match="nodes"):
            FleetConfig(nodes=0)

    def test_fractional_node_count_fails_at_construction(self):
        with pytest.raises(ValueError, match="nodes must be an integer"):
            FleetConfig(nodes=1.5)

    def test_bool_node_count_fails_at_construction(self):
        with pytest.raises(ValueError, match="nodes must be an integer"):
            FleetConfig(nodes=True)

    def test_numpy_integer_node_count_passes(self):
        assert FleetConfig(nodes=np.int64(3)).nodes == 3


class TestAutoscaler:
    def _policy(self, **kw):
        base = dict(min_nodes=1, max_nodes=8, eval_interval_s=2.0, target_rps_per_node=30.0)
        base.update(kw)
        return AutoscalePolicy(**base)

    def test_scales_up_under_diurnal_peak_and_down_after(self):
        spec = _spec(duration_s=20.0, session_rate=12.0, frames_per_session=6)
        reqs = generate_diurnal_requests(spec, amplitude=0.8, period_s=20.0)
        cfg = FleetConfig(nodes=2, routing="state_aware", node=_node(), autoscale=self._policy())
        rep = simulate_fleet(reqs, _times(), cfg, 20.0)
        actions = [e.action for e in rep.scale_events]
        assert "add" in actions
        assert "drain" in actions
        assert rep.peak_nodes > 2
        assert rep.peak_nodes <= 8
        # Every drain is eventually followed by a remove of that node.
        drained = [e.node_id for e in rep.scale_events if e.action == "drain"]
        removed = {e.node_id for e in rep.scale_events if e.action == "remove"}
        assert set(drained[:-1]) <= removed  # last drain may still be in grace

    def test_respects_max_nodes(self):
        spec = _spec(duration_s=10.0, session_rate=60.0)
        reqs = generate_requests(spec)
        cfg = FleetConfig(
            nodes=1, routing="state_aware", node=_node(), autoscale=self._policy(max_nodes=3)
        )
        rep = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert rep.peak_nodes <= 3

    def test_never_drains_below_min(self):
        spec = _spec(duration_s=10.0, session_rate=0.5)
        reqs = generate_requests(spec)
        cfg = FleetConfig(
            nodes=2, routing="state_aware", node=_node(), autoscale=self._policy(min_nodes=2)
        )
        rep = simulate_fleet(reqs, _times(), cfg, 10.0)
        assert rep.nodes_final >= 2
        assert all(e.action != "drain" for e in rep.scale_events)

    def test_new_node_ids_are_monotone(self):
        policy = self._policy(target_rps_per_node=1.0)
        router = make_router("state_aware", range(2), session_ttl_s=100.0)
        scaler = Autoscaler(policy, router, next_node_id=2)
        for t in np.arange(0.05, 12.0, 0.05):
            scaler.observe(float(t))
            router.route(int(t * 20) % 7, float(t))
        added = [e.node_id for e in scaler.events if e.action == "add"]
        assert added == sorted(added)
        assert added and added[0] == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_nodes"):
            AutoscalePolicy(min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError, match="down_hysteresis"):
            AutoscalePolicy(down_hysteresis=1.5)


class TestExtFleetStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments import ext_fleet

        return ext_fleet.run(
            model="DnCNN",
            crop=32,
            seed=DEFAULT_SEED,
            node_counts=(1, 2),
            duration_units=20.0,
        )

    def test_cell_grid_complete(self, study):
        assert len(study.cells) == len(study.engines) * len(study.policies) * 2
        assert study.cell("Diffy", "state_aware", 2).nodes == 2
        with pytest.raises(KeyError):
            study.cell("Diffy", "state_aware", 99)

    def test_golden_properties_populated(self, study):
        assert set(study.diffy_goodput_by_nodes) == {1, 2}
        assert set(study.warm_fraction_ladder) == set(study.policies)
        assert study.diffy_over_vaa_goodput > 1.0
        assert set(study.autoscale_summary) == set(study.engines)

    def test_serializable(self, study):
        a = canonical_dumps(to_jsonable(study))
        assert "diffy_goodput_by_nodes" in a

    def test_requires_vaa(self):
        from repro.experiments import ext_fleet

        with pytest.raises(ValueError, match="VAA"):
            ext_fleet.run(model="DnCNN", crop=32, seed=DEFAULT_SEED, engines=("Diffy",))
