"""Deterministic chaos timelines for the serving simulation.

A chaos run is a pure function of its :class:`ChaosSpec`: every event —
node crashes, degraded-node windows, correlated fault+load bursts — is
drawn ahead of the simulation from one :func:`repro.utils.rng.rng_for`
stream keyed by the spec's seed, then pinned into a frozen
:class:`ChaosSchedule`.  The simulation itself draws no randomness, so a
chaos run is byte-identical across cold runs, exactly like the
fault-free fleet.

Three event classes, matching the three injection levels:

- :class:`NodeCrash` — a node goes down at ``crash_s`` (queued and
  in-flight work is lost, its temporal state store is wiped) and
  restarts empty at ``restart_s``.  The router fails the node's sessions
  over; when it returns, every rerouted-back session pays a cold
  re-anchor — the lost-state re-anchor storm.
- :class:`DegradeWindow` — a node serves at ``slowdown`` × its normal
  service time inside the window (thermal throttling, a noisy
  neighbour) without going down.
- :class:`BurstWindow` — a correlated fault+load burst: the storage
  fault rate is multiplied by ``fault_mult`` and extra sessions arrive
  at ``(load_mult - 1)`` × the base session rate inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.serve.workload import Request, WorkloadSpec
from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import check_integer, check_positive, check_unit_interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.serve.chaos.storage import StorageChaos

__all__ = [
    "ChaosSpec",
    "NodeCrash",
    "DegradeWindow",
    "BurstWindow",
    "ChaosSchedule",
    "NodeChaos",
    "generate_schedule",
    "overload_requests",
]

#: Crash/degrade/burst start times are drawn inside this fraction of the
#: run so every event lands while load is still arriving and its
#: aftermath (restart, recovery) is observable before quiescence.
_EVENT_LO = 0.10
_EVENT_HI = 0.70

#: Resampling attempts for non-overlapping per-node crash windows.
_MAX_DRAWS = 16


@dataclass(frozen=True)
class ChaosSpec:
    """All knobs of one chaos scenario (golden-serializable).

    ``storage_rate`` is a per-stored-bit fault rate applied to the
    temporal-state calibration map (see
    :func:`repro.serve.chaos.storage.price_ladder`); ``protection``
    names the serve-path protection ladder.  Event counts of zero
    disable the corresponding fault class.  ``fault_seed`` (defaulting
    to ``seed``) drives only the per-request storage-outcome draws, so a
    chaos-grid point keeps its fault pattern whatever other points ran.
    """

    storage_rate: float = 0.0
    fault_model: str = "flip1"
    protection: str = "none"
    #: Calibration trials behind the ladder pricing probabilities.
    storage_trials: int = 64
    crashes: int = 0
    crash_downtime_s: float = 0.0
    degrades: int = 0
    degrade_len_s: float = 0.0
    degrade_slowdown: float = 2.0
    bursts: int = 0
    burst_len_s: float = 0.0
    burst_fault_mult: float = 10.0
    burst_load_mult: float = 1.0
    seed: int = DEFAULT_SEED
    fault_seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_unit_interval("storage_rate", self.storage_rate)
        check_integer("storage_trials", self.storage_trials)
        check_positive("storage_trials", self.storage_trials)
        for name in ("crashes", "degrades", "bursts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.crashes:
            check_positive("crash_downtime_s", self.crash_downtime_s)
        if self.degrades:
            check_positive("degrade_len_s", self.degrade_len_s)
            if self.degrade_slowdown < 1.0:
                raise ValueError(
                    f"degrade_slowdown must be >= 1, got {self.degrade_slowdown}"
                )
        if self.bursts:
            check_positive("burst_len_s", self.burst_len_s)
            if self.burst_fault_mult < 1.0:
                raise ValueError(
                    f"burst_fault_mult must be >= 1, got {self.burst_fault_mult}"
                )
            if self.burst_load_mult < 1.0:
                raise ValueError(
                    f"burst_load_mult must be >= 1, got {self.burst_load_mult}"
                )
            # Bursts price the ladder at the elevated per-bit rate.
            check_unit_interval(
                "storage_rate * burst_fault_mult",
                self.storage_rate * self.burst_fault_mult,
            )

    @property
    def effective_fault_seed(self) -> int:
        return self.seed if self.fault_seed is None else self.fault_seed


@dataclass(frozen=True)
class NodeCrash:
    """One node-down window: crash at ``crash_s``, back empty at ``restart_s``."""

    node_id: int
    crash_s: float
    restart_s: float


@dataclass(frozen=True)
class DegradeWindow:
    """One slowdown window on one node (service times × ``slowdown``)."""

    node_id: int
    start_s: float
    end_s: float
    slowdown: float


@dataclass(frozen=True)
class BurstWindow:
    """One correlated fault+load burst across the whole fleet."""

    start_s: float
    end_s: float
    fault_mult: float
    load_mult: float


@dataclass(frozen=True)
class ChaosSchedule:
    """The pinned event timeline one chaos run executes."""

    spec: ChaosSpec
    duration_s: float
    crashes: "tuple[NodeCrash, ...]"
    degrades: "tuple[DegradeWindow, ...]"
    bursts: "tuple[BurstWindow, ...]"

    def burst_active(self, t: float) -> bool:
        return any(w.start_s <= t < w.end_s for w in self.bursts)

    def crash_windows(self, node_id: int) -> "tuple[tuple[float, float], ...]":
        return tuple(
            (c.crash_s, c.restart_s) for c in self.crashes if c.node_id == node_id
        )

    def degrade_windows(self, node_id: int) -> "tuple[tuple[float, float, float], ...]":
        return tuple(
            (d.start_s, d.end_s, d.slowdown)
            for d in self.degrades
            if d.node_id == node_id
        )


@dataclass(frozen=True)
class NodeChaos:
    """One node's slice of the chaos run, handed to the shard engine.

    ``down`` holds only the crash windows the routing pass actually
    applied (a crash that would have emptied the fleet is skipped), so
    the shard's view of the topology matches the router's exactly.
    """

    node_id: int
    duration_s: float
    storage: "Optional[StorageChaos]" = None
    down: "tuple[tuple[float, float], ...]" = ()
    degrade: "tuple[tuple[float, float, float], ...]" = ()

    def slowdown_at(self, t: float) -> float:
        for start, end, slowdown in self.degrade:
            if start <= t < end:
                return slowdown
        return 1.0


def generate_schedule(
    spec: ChaosSpec, duration_s: float, node_ids: Iterable[int]
) -> ChaosSchedule:
    """Draw the full event timeline for one run (pure function of args).

    Crash and degrade victims are drawn uniformly from ``node_ids`` (the
    initial fleet — autoscaled nodes have monotone ids past it, so chaos
    never collides with a node the scaler adds later).  Per-node crash
    windows never overlap: a draw that would overlap an existing window
    on the same node is resampled a bounded number of times, then
    dropped — all purely from the one seeded stream, so the schedule is
    reproducible everywhere.
    """
    check_positive("duration_s", duration_s)
    nodes = tuple(sorted(set(int(n) for n in node_ids)))
    if (spec.crashes or spec.degrades) and not nodes:
        raise ValueError("node-fault events need at least one node id")
    rng = rng_for(spec.seed, "chaos-schedule")
    lo, hi = _EVENT_LO * duration_s, _EVENT_HI * duration_s

    crashes: "list[NodeCrash]" = []
    for _ in range(spec.crashes):
        for _attempt in range(_MAX_DRAWS):
            node = nodes[int(rng.integers(len(nodes)))]
            t = float(rng.uniform(lo, hi))
            window = (t, t + spec.crash_downtime_s)
            taken = [
                (c.crash_s, c.restart_s) for c in crashes if c.node_id == node
            ]
            if all(window[1] <= s or window[0] >= e for s, e in taken):
                crashes.append(NodeCrash(node, window[0], window[1]))
                break
    crashes.sort(key=lambda c: (c.crash_s, c.node_id))

    degrades: "list[DegradeWindow]" = []
    for _ in range(spec.degrades):
        node = nodes[int(rng.integers(len(nodes)))]
        t = float(rng.uniform(lo, hi))
        degrades.append(
            DegradeWindow(node, t, t + spec.degrade_len_s, spec.degrade_slowdown)
        )
    degrades.sort(key=lambda d: (d.start_s, d.node_id))

    bursts: "list[BurstWindow]" = []
    for _ in range(spec.bursts):
        t = float(rng.uniform(lo, hi))
        bursts.append(
            BurstWindow(t, t + spec.burst_len_s, spec.burst_fault_mult, spec.burst_load_mult)
        )
    bursts.sort(key=lambda b: b.start_s)

    return ChaosSchedule(
        spec=spec,
        duration_s=float(duration_s),
        crashes=tuple(crashes),
        degrades=tuple(degrades),
        bursts=tuple(bursts),
    )


def overload_requests(
    spec: WorkloadSpec, schedule: ChaosSchedule, first_session_id: int
) -> "list[Request]":
    """Extra sessions the burst windows inject on top of the base load.

    Each window adds a Poisson stream of whole sessions at
    ``(load_mult - 1) ×`` the base session rate, numbered from
    ``first_session_id`` so they never collide with base sessions.  The
    caller merges the result with the base workload (and re-sorts by the
    standard ``(arrival_s, session_id, frame_index)`` key).
    """
    if first_session_id < 0:
        raise ValueError(f"first_session_id must be >= 0, got {first_session_id}")
    out: "list[Request]" = []
    sid = int(first_session_id)
    for index, window in enumerate(schedule.bursts):
        extra_rate = spec.session_rate * (window.load_mult - 1.0)
        if extra_rate <= 0.0:
            continue
        rng = rng_for(schedule.spec.seed, "chaos-overload", index)
        t = window.start_s
        while True:
            t += float(rng.exponential(1.0 / extra_rate))
            if t >= window.end_s:
                break
            for f in range(spec.frames_per_session):
                out.append(
                    Request(
                        session_id=sid,
                        frame_index=f,
                        arrival_s=t + f * spec.frame_interval_s,
                    )
                )
            sid += 1
    out.sort(key=lambda r: (r.arrival_s, r.session_id, r.frame_index))
    return out
