"""Fleet orchestration: route globally, simulate shards, merge exactly.

The coupling problem of simulating N nodes is that routing decisions
depend on global order (session tables, backlog estimates, autoscaler
windows) while each node's queueing dynamics depend only on its own
substream.  The split here exploits that:

1. **Routing pass** (:func:`route_requests`) — one deterministic walk
   over the time-sorted arrival stream.  All cross-node coupling lives
   here: the policy's tables, the autoscaler's windowed rate estimate,
   migration detection.  Output is a columnar substream per node.
2. **Shard pass** — each substream runs through the shard
   engine (:mod:`repro.serve.fleet.shard`) *independently*, serially
   in-process in ascending node-id order.
3. **Merge** — per-node telemetry folds into one
   :class:`~repro.serve.telemetry.ServeTelemetry` in ascending node-id
   order.  Histogram merges are exact and the order is pinned, so the
   fleet report is byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.serve.chaos.schedule import (
    ChaosSchedule,
    ChaosSpec,
    NodeChaos,
    NodeCrash,
    generate_schedule,
)
from repro.serve.chaos.storage import StorageChaos, price_ladder, serve_ladder
from repro.serve.chaos.telemetry import ChaosTelemetry
from repro.serve.fleet.autoscale import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.serve.fleet.routing import ROUTING_POLICIES, make_router
from repro.serve.fleet.shard import ShardStream, simulate_shard
from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig
from repro.serve.state import StateStats
from repro.serve.telemetry import CalibTelemetry, ServeTelemetry
from repro.serve.workload import Request

if TYPE_CHECKING:  # pragma: no cover - typing only; the calib spec is
    # duck-typed (shards call .build()), so serve never imports calib.
    from repro.calib.recalibrate import CalibSpec
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_positive

__all__ = [
    "FleetConfig",
    "NodeReport",
    "FleetReport",
    "RoutingOutcome",
    "route_requests",
    "simulate_fleet",
]


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs on top of one per-node :class:`ServeConfig`."""

    nodes: int = 4
    routing: str = "state_aware"
    node: ServeConfig = field(default_factory=ServeConfig)
    #: Virtual nodes per physical node on the consistent-hash ring.
    vnodes: int = 64
    #: Idle time after which a routing-table session entry expires
    #: (None = never; the state stores still evict under their byte cap).
    session_ttl_s: Optional[float] = None
    #: Front-end per-request service estimate for least-loaded routing
    #: (None = the engine's cold time, the only cost a state-blind
    #: front end can assume).
    est_service_s: Optional[float] = None
    autoscale: Optional[AutoscalePolicy] = None
    #: Chaos scenario to execute during the run (None = fault-free).
    chaos: Optional[ChaosSpec] = None
    #: Precision-calibration recipe; each node builds its own controller
    #: from it (None = uncalibrated, bit-identical to before).
    calib: "Optional[CalibSpec]" = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        check_positive("nodes", self.nodes)
        if self.chaos is not None:
            serve_ladder(self.chaos.protection)  # fail fast on unknown ladders
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(f"routing must be one of {ROUTING_POLICIES}, got {self.routing!r}")
        if self.session_ttl_s is not None:
            check_positive("session_ttl_s", self.session_ttl_s)
        if self.est_service_s is not None:
            check_positive("est_service_s", self.est_service_s)


@dataclass(frozen=True)
class NodeReport:
    """One node's per-shard outcome (golden-serializable)."""

    node_id: int
    routed: int
    migrated_in: int
    completed: int
    shed: int
    warm_served: int
    cold_served: int
    reanchors_gap: int
    reanchors_evicted: int
    state_evictions: int
    reanchors_lost: int = 0
    reanchors_cut: int = 0
    reanchors_recal: int = 0


@dataclass(frozen=True)
class FleetReport:
    """Outcome of serving one workload on one fleet configuration."""

    engine: str
    policy: str
    nodes_initial: int
    nodes_final: int
    peak_nodes: int
    duration_s: float
    requests_total: int
    offered_rps: float
    #: Requests whose session previously landed on a different node —
    #: each one's temporal state is on the wrong machine, so it pays a
    #: cold re-anchor frame.
    migrations: int
    warm_served: int
    cold_served: int
    reanchors_gap: int
    reanchors_evicted: int
    metrics: dict
    scale_events: "tuple[ScaleEvent, ...]"
    node_reports: "tuple[NodeReport, ...]"
    reanchors_lost: int = 0
    reanchors_cut: int = 0
    reanchors_recal: int = 0
    #: Merged chaos telemetry snapshot (None on fault-free runs).
    chaos: Optional[dict] = None
    #: Merged calibration telemetry snapshot (None when uncalibrated).
    calib: Optional[dict] = None

    __golden_properties__ = (
        "goodput_rps",
        "p99_ms",
        "shed_rate",
        "warm_fraction",
        "migration_rate",
    )

    @property
    def goodput_rps(self) -> float:
        return float(self.metrics["goodput_rps"])

    @property
    def p99_ms(self) -> float:
        return float(self.metrics["latency_ms"]["p99"])

    @property
    def shed_rate(self) -> float:
        return float(self.metrics["shed_rate"])

    @property
    def warm_fraction(self) -> float:
        served = self.warm_served + self.cold_served
        return self.warm_served / served if served else 0.0

    @property
    def migration_rate(self) -> float:
        return self.migrations / self.requests_total if self.requests_total else 0.0


@dataclass(frozen=True)
class RoutingOutcome:
    """Product of the routing pass: substreams plus fleet-level facts."""

    streams: "tuple[ShardStream, ...]"  # ascending node id; includes empty nodes
    migrations: int
    scale_events: "tuple[ScaleEvent, ...]"
    nodes_final: int
    peak_nodes: int
    #: Crash windows the routing pass actually executed (a crash that
    #: would have emptied the routable set is skipped, restart included).
    crashes_applied: "tuple[NodeCrash, ...]" = ()


class _TopologyEvents:
    """Chaos crash/restart events applied in arrival order to the router.

    A crash removes its node so the router fails sessions over; the
    restart adds the node back empty.  A crash is skipped (never applied,
    restart included) when the node is already gone or is the last
    routable node — the fleet never routes into a void.  The shard pass
    receives only the *applied* windows, so both passes see the same
    topology.
    """

    def __init__(self, router, schedule: Optional[ChaosSchedule]):
        self.router = router
        crashes = schedule.crashes if schedule is not None else ()
        self._events = sorted(
            [(c.crash_s, 0, k, c) for k, c in enumerate(crashes)]
            + [(c.restart_s, 1, k, c) for k, c in enumerate(crashes)]
        )
        self._applied: "dict[int, bool]" = {}
        self._next = 0
        self.crashes_applied: "list[NodeCrash]" = []

    def apply_until(self, now: float) -> None:
        while self._next < len(self._events) and self._events[self._next][0] <= now:
            _, phase, key, crash = self._events[self._next]
            self._next += 1
            if phase == 0:
                active = self.router.active_nodes
                draining = set(self.router.draining_nodes)
                routable = [n for n in active if n not in draining]
                can_kill = crash.node_id in active and (
                    crash.node_id in draining or len(routable) > 1
                )
                self._applied[key] = can_kill
                if can_kill:
                    self.router.remove_node(crash.node_id)
                    self.crashes_applied.append(crash)
            elif self._applied.get(key):
                self.router.add_node(crash.node_id)


def route_requests(
    requests: Sequence[Request],
    times: ServiceTimes,
    config: FleetConfig,
    schedule: Optional[ChaosSchedule] = None,
) -> RoutingOutcome:
    """One deterministic routing pass over the time-sorted arrival stream.

    With a chaos ``schedule`` the pass also executes the crash/restart
    timeline: before routing each request, every topology event at or
    before its arrival is applied (chaos events fire before the
    autoscaler's evaluation at tied timestamps).
    """
    router = make_router(
        config.routing,
        range(config.nodes),
        seed=config.seed,
        vnodes=config.vnodes,
        est_service_s=config.est_service_s or times.cold_s,
        session_ttl_s=config.session_ttl_s,
    )
    scaler = None
    if config.autoscale is not None:
        scaler = Autoscaler(config.autoscale, router, next_node_id=config.nodes)
    topology = _TopologyEvents(router, schedule)
    columns: "dict[int, tuple[list, list, list, list, list, list]]" = {
        n: ([], [], [], [], [], []) for n in range(config.nodes)
    }
    last_node: "dict[int, int]" = {}
    migrations = 0
    peak = len(router.active_nodes)
    with timing.timed("fleet.route"):
        for request in requests:
            topology.apply_until(request.arrival_s)
            if scaler is not None:
                scaler.observe(request.arrival_s)
                peak = max(peak, len(router.active_nodes))
            node = router.route(request.session_id, request.arrival_s)
            previous = last_node.get(request.session_id)
            migrated = previous is not None and previous != node
            if migrated:
                migrations += 1
            last_node[request.session_id] = node
            if node not in columns:
                columns[node] = ([], [], [], [], [], [])
            arr, sid, fidx, mig, cut, mot = columns[node]
            arr.append(request.arrival_s)
            sid.append(request.session_id)
            fidx.append(request.frame_index)
            mig.append(migrated)
            cut.append(request.scene_cut)
            mot.append(request.motion)
        # Late events (after the last arrival) still settle the final
        # topology — a node restarting during the drain must count as up.
        topology.apply_until(math.inf)
    streams = tuple(
        ShardStream(
            node_id=node,
            arrival_s=np.asarray(arr, dtype=np.float64),
            session_id=np.asarray(sid, dtype=np.int64),
            frame_index=np.asarray(fidx, dtype=np.int64),
            migrated=np.asarray(mig, dtype=bool),
            scene_cut=np.asarray(cut, dtype=bool),
            motion=np.asarray(mot, dtype=np.float64),
        )
        for node, (arr, sid, fidx, mig, cut, mot) in sorted(columns.items())
    )
    return RoutingOutcome(
        streams=streams,
        migrations=migrations,
        scale_events=tuple(scaler.events) if scaler is not None else (),
        nodes_final=len(router.active_nodes),
        peak_nodes=peak,
        crashes_applied=tuple(topology.crashes_applied),
    )


def simulate_fleet(
    requests: Sequence[Request],
    times: ServiceTimes,
    config: FleetConfig,
    duration_s: Optional[float] = None,
) -> FleetReport:
    """Serve one workload on the fleet; deterministic across runs.

    Shards run serially in-process in ascending node-id order, which is
    also the merge order.
    """
    if duration_s is None:
        duration_s = max((r.arrival_s for r in requests), default=0.0) or 1.0
    check_positive("duration_s", duration_s)
    schedule = None
    storage = None
    if config.chaos is not None:
        spec = config.chaos
        schedule = generate_schedule(spec, duration_s, range(config.nodes))
        if spec.storage_rate > 0.0 or serve_ladder(spec.protection).protects:
            base = price_ladder(
                spec.protection,
                spec.fault_model,
                spec.storage_rate,
                trials=spec.storage_trials,
                seed=spec.seed,
            )
            burst = None
            if schedule.bursts and spec.burst_fault_mult != 1.0 and spec.storage_rate > 0.0:
                burst = price_ladder(
                    spec.protection,
                    spec.fault_model,
                    spec.storage_rate * spec.burst_fault_mult,
                    trials=spec.storage_trials,
                    seed=spec.seed,
                )
            storage = StorageChaos(
                seed=spec.effective_fault_seed,
                base=base,
                burst=burst,
                bursts=schedule.bursts,
            )
    routing = route_requests(requests, times, config, schedule=schedule)

    def node_chaos(node_id: int) -> Optional[NodeChaos]:
        if schedule is None:
            return None
        down = tuple(
            (c.crash_s, c.restart_s)
            for c in routing.crashes_applied
            if c.node_id == node_id
        )
        return NodeChaos(
            node_id=node_id,
            duration_s=float(duration_s),
            storage=storage,
            down=down,
            degrade=schedule.degrade_windows(node_id),
        )

    with timing.timed("fleet.shards"):
        results = [
            simulate_shard(
                stream, times, config.node, chaos=node_chaos(stream.node_id), calib=config.calib
            )
            for stream in routing.streams
        ]

    merged = ServeTelemetry(
        max_batch=config.node.max_batch, queue_capacity=config.node.queue_capacity
    )
    state = StateStats()
    node_reports = []
    chaos_merged: Optional[ChaosTelemetry] = None
    calib_merged: Optional[CalibTelemetry] = None
    for res in results:  # ascending node id — the merge order contract
        merged.merge(res.telemetry)
        state.merge(res.state)
        if res.chaos is not None:
            chaos_merged = res.chaos if chaos_merged is None else chaos_merged.merge(res.chaos)
        if res.calib is not None:
            calib_merged = res.calib if calib_merged is None else calib_merged.merge(res.calib)
        node_reports.append(
            NodeReport(
                node_id=res.node_id,
                routed=res.routed,
                migrated_in=res.migrated_in,
                completed=res.telemetry.completed,
                shed=res.telemetry.shed,
                warm_served=res.state.warm,
                cold_served=res.state.cold,
                reanchors_gap=res.state.reanchors_gap,
                reanchors_evicted=res.state.reanchors_evicted,
                state_evictions=res.state.evictions,
                reanchors_lost=res.state.reanchors_lost,
                reanchors_cut=res.state.reanchors_cut,
                reanchors_recal=res.state.reanchors_recal,
            )
        )
    workers_total = config.node.workers * routing.peak_nodes
    return FleetReport(
        engine=times.engine,
        policy=config.routing,
        nodes_initial=config.nodes,
        nodes_final=routing.nodes_final,
        peak_nodes=routing.peak_nodes,
        duration_s=float(duration_s),
        requests_total=len(requests),
        offered_rps=len(requests) / duration_s,
        migrations=routing.migrations,
        warm_served=state.warm,
        cold_served=state.cold,
        reanchors_gap=state.reanchors_gap,
        reanchors_evicted=state.reanchors_evicted,
        metrics=merged.snapshot(duration_s, workers_total),
        scale_events=routing.scale_events,
        node_reports=tuple(node_reports),
        reanchors_lost=state.reanchors_lost,
        reanchors_cut=state.reanchors_cut,
        reanchors_recal=state.reanchors_recal,
        chaos=chaos_merged.snapshot() if chaos_merged is not None else None,
        calib=calib_merged.snapshot() if calib_merged is not None else None,
    )
