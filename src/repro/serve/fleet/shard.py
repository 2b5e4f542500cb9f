"""The serving engine: one accelerator node serving its arrival stream.

Every serving path runs this engine — each fleet node on its routed
substream (:mod:`repro.serve.fleet.service`) and the single-node
:func:`repro.serve.service.serve_workload` on the whole stream.  It
implements admission (a bounded queue that sheds when full), deadline
shedding at every dispatch attempt, dynamic batching (a full batch
dispatches at once; a partial one once its oldest request has waited
``max_wait_s``, so ``max_wait_s=0`` is greedy dispatch), per-session
temporal state pricing, and telemetry; fleets add chaos and
calibration hooks on top.

The loop walks a time-ordered event sequence over plain Python lists
(batches hold at most a few requests, where numpy per-call overhead
dominates).  Ties at one timestamp resolve in a fixed order: a crash,
then arrivals, then completions in dispatch order, then the wait timer.
That is the order of the per-event virtual-clock engine kept in
``tests/oracles/serve.py``.

Telemetry is recorded once per shard, not once per event: the loop
appends each event's observations to flat ``array.array`` buffers and,
after quiescence, folds them in with one
:meth:`ServeTelemetry.record_events` call (and, with chaos, one
:meth:`ChaosTelemetry.record_serves`).  The fold bins every sample as the
per-sample ``bisect`` does and adds the float totals left to right in
event order, so every counter, histogram bin and float total is
bit-identical to the oracle's per-event hooks, as the equivalence tests
assert.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.serve.chaos.schedule import NodeChaos
from repro.serve.chaos.telemetry import ChaosTelemetry
from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig
from repro.serve.state import StateStats, TemporalStateStore
from repro.serve.telemetry import CalibTelemetry, ServeTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only; the controller spec
    # is duck-typed (built via .build()) so serve never imports calib.
    from repro.calib.recalibrate import CalibSpec

__all__ = ["ShardStream", "ShardResult", "simulate_shard"]


@dataclass(frozen=True)
class ShardStream:
    """The arrival substream one router pass assigned to one node.

    Columnar (one array per field) so streams pickle compactly into
    pool workers.  ``migrated`` marks requests whose session previously
    lived on another node (router-observed; the node's state store
    independently confirms the cold re-anchor).
    ``scene_cut``/``motion`` carry the per-frame video dynamics of
    :func:`repro.serve.workload.apply_scene_dynamics`; omitting them
    yields the static-pan defaults (no cuts, baseline motion).
    """

    node_id: int
    arrival_s: np.ndarray
    session_id: np.ndarray
    frame_index: np.ndarray
    migrated: np.ndarray
    scene_cut: Optional[np.ndarray] = None
    motion: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.arrival_s)
        if self.scene_cut is None:
            object.__setattr__(self, "scene_cut", np.zeros(n, dtype=bool))
        if self.motion is None:
            object.__setattr__(self, "motion", np.ones(n, dtype=np.float64))
        lengths = (
            len(self.session_id),
            len(self.frame_index),
            len(self.migrated),
            len(self.scene_cut),
            len(self.motion),
        )
        if any(length != n for length in lengths):
            raise ValueError("ShardStream columns must have equal length")
        # Checked first: NaN compares False, so it passes the order test
        # below and would only fail deep in the event loop.
        if not np.isfinite(self.arrival_s).all():
            raise ValueError("ShardStream arrival_s must be finite (no NaN or inf)")
        if n and bool(np.any(np.diff(self.arrival_s) < 0)):
            raise ValueError("ShardStream arrivals must be sorted by time")

    def __len__(self) -> int:
        return len(self.arrival_s)

    @classmethod
    def from_requests(cls, node_id, requests, migrated=None):
        """Build a stream from :class:`~repro.serve.workload.Request` objects."""
        reqs = list(requests)
        flags = list(migrated) if migrated is not None else [False] * len(reqs)
        return cls(
            node_id=int(node_id),
            arrival_s=np.array([r.arrival_s for r in reqs], dtype=np.float64),
            session_id=np.array([r.session_id for r in reqs], dtype=np.int64),
            frame_index=np.array([r.frame_index for r in reqs], dtype=np.int64),
            migrated=np.array(flags, dtype=bool),
            scene_cut=np.array([r.scene_cut for r in reqs], dtype=bool),
            motion=np.array([r.motion for r in reqs], dtype=np.float64),
        )


@dataclass
class ShardResult:
    """One node's simulated outcome (telemetry merges across nodes)."""

    node_id: int
    telemetry: ServeTelemetry
    state: StateStats
    routed: int
    migrated_in: int
    chaos: Optional[ChaosTelemetry] = None
    calib: Optional[CalibTelemetry] = None


def simulate_shard(
    stream: ShardStream,
    times: ServiceTimes,
    config: ServeConfig,
    chaos: Optional[NodeChaos] = None,
    calib: "Optional[CalibSpec]" = None,
) -> ShardResult:
    """Serve one node's substream to quiescence.

    With ``chaos`` the node additionally executes its slice of the chaos
    timeline: crash windows shed the queue, kill in-flight batches and
    wipe the temporal state store; degrade windows scale batch service
    times; storage chaos resolves each warm state read to a seeded
    clean/corrected/detected/silent outcome (detected invalidates the
    session, forcing a priced re-anchor).  Without ``chaos`` every code
    path and float is identical to before — the fault-free goldens do
    not move.

    With ``calib`` (a picklable :class:`repro.calib.recalibrate.CalibSpec`)
    the node builds its own precision-calibration controller — its
    decisions are pure functions of frame identity and arrival time, so
    every node observes the identical drift — and runs the control loop
    on every served frame; its counters land in the result's ``calib``
    telemetry.  Table swaps bump the state store's calibration version,
    so resident sessions re-anchor cold (priced as ``reanchors_recal``).
    Without ``calib`` nothing changes.
    """
    n = len(stream)
    arr = stream.arrival_s.tolist()
    sid = stream.session_id.tolist()
    fidx = stream.frame_index.tolist()
    cut = stream.scene_cut.tolist()
    motion = stream.motion.tolist()
    deadline = (stream.arrival_s + config.deadline_s).tolist()
    max_batch = config.max_batch
    max_wait_s = config.max_wait_s
    capacity = config.queue_capacity
    overhead_s = times.batch_overhead_s
    telemetry = ServeTelemetry(max_batch=max_batch, queue_capacity=capacity)
    storage = chaos.storage if chaos is not None else None
    state_bytes = times.state_bytes
    if storage is not None:
        # Protected state is bigger: the ladder's storage overhead
        # inflates each session's resident footprint, so the same byte
        # cap holds fewer warm sessions — protection's capacity cost,
        # charged even at fault rate zero.
        state_bytes = max(1, int(round(times.state_bytes * storage.overhead)))
    state = TemporalStateStore(config.state_capacity_bytes, state_bytes)
    ctel = (
        ChaosTelemetry(duration_s=chaos.duration_s) if chaos is not None else None
    )
    controller = calib.build() if calib is not None else None
    #: session id -> invalidation time, awaiting its next warm serve.
    recovering: "dict[int, float]" = {}
    down = list(chaos.down) if chaos is not None else []
    di = 0  # next crash window index

    # Event buffers, folded into the telemetry once after quiescence.
    depths, admits = array("q"), array("B")  # per arrival
    sizes, services = array("q"), array("d")  # per batch, dispatch order
    latencies, on_time = array("d"), array("B")  # per request, completion order
    served_at, served_warm, served_reanchor = array("d"), array("B"), array("B")

    idle = config.workers
    queue: "list[int]" = []  # admitted request indices, FIFO via head pointer
    head = 0
    busy: "list[tuple[float, int, list[int]]]" = []  # (completion time, seq, batch)
    seq = 0
    i = 0  # next arrival index

    def crash(at_s: float) -> None:
        """Lose the node: queue, in-flight work, and temporal state."""
        nonlocal head, idle
        shed = len(queue) - head
        head = len(queue)
        killed = sum(len(batch) for _, _, batch in busy)
        busy.clear()
        idle = config.workers
        lost = state.invalidate_all()
        for session in lost:
            recovering.setdefault(session, at_s)
        ctel.on_crash(shed, killed, len(lost))

    def price(batch: "list[int]", now: float) -> float:
        """Serve a batch through the state store in FIFO order."""
        service_s = overhead_s
        if controller is not None:
            # Complete any due measured recalibration before pricing the
            # batch: every frame in it is served under one table generation.
            controller.advance(now, state)
        for j in batch:
            s, f, is_cut = sid[j], fidx[j], cut[j]
            if storage is not None and not is_cut and state.is_warm(s, f):
                outcome = storage.outcome(s, f, now)
                ctel.on_storage(outcome)
                if outcome == "detected":
                    # The ladder flagged the stored state: drop it and
                    # re-anchor rather than serve corrupt output.
                    state.invalidate(s)
                    recovering.setdefault(s, now)
            if ctel is not None:
                before = state.stats.reanchors
            mode = state.serve(s, f, scene_cut=is_cut)
            service_s += times.request_s(mode, motion[j])
            if controller is not None:
                controller.on_frame(now, s, f, arr[j], state)
            if ctel is not None:
                warm = mode == "temporal"
                served_at.append(now)
                served_warm.append(warm)
                served_reanchor.append(state.stats.reanchors > before)
                if warm and recovering:
                    t0 = recovering.pop(s, None)
                    if t0 is not None:
                        ctel.on_recovery(now - t0)
        if chaos is not None:
            slowdown = chaos.slowdown_at(now)
            if slowdown != 1.0:
                service_s *= slowdown
        return service_s

    def try_dispatch(now: float) -> None:
        """Fill idle workers: shed expired requests, then dispatch while ready."""
        nonlocal head, idle, seq
        while idle > 0:
            expired = head
            while head < len(queue) and deadline[queue[head]] < now:
                head += 1
            if head > expired:
                telemetry.shed_deadline += head - expired
            depth = len(queue) - head
            # A full batch goes at once; a partial one once its oldest
            # request has waited max_wait_s.  The wait test is written
            # exactly as the timer's expiry below: the algebraically equal
            # (now - oldest) >= max_wait_s can round false at the expiry
            # instant and re-arm the timer there forever.
            if not depth or (depth < max_batch and not now >= arr[queue[head]] + max_wait_s):
                break
            take = min(depth, max_batch)
            batch = queue[head : head + take]
            head += take
            service_s = price(batch, now)
            idle -= 1
            sizes.append(take)
            services.append(service_s)
            heapq.heappush(busy, (now + service_s, seq, batch))
            seq += 1

    # Event order at a tied timestamp: crash, arrivals, completions (in
    # dispatch order), then the wait timer.  The timer is the oldest
    # queued request's wait expiry; it is live only while a worker idles
    # with requests queued — exactly when the last dispatch attempt left
    # a partial batch waiting to fill.
    while i < n or head < len(queue) or busy:
        t_arr = arr[i] if i < n else math.inf
        t_free = busy[0][0] if busy else math.inf
        t_wait = arr[queue[head]] + max_wait_s if idle and head < len(queue) else math.inf
        if di < len(down) and down[di][0] <= min(t_arr, t_free, t_wait):
            # The crash fires before any event at or past its timestamp:
            # queued and in-flight work at the instant of the crash is lost.
            crash(down[di][0])
            di += 1
        elif t_arr <= t_free and t_arr <= t_wait:
            admitted = len(queue) - head < capacity
            if admitted:
                queue.append(i)
            i += 1
            depths.append(len(queue) - head)
            admits.append(admitted)
            if admitted and idle:
                try_dispatch(t_arr)
        elif t_free <= t_wait:
            now, _, batch = heapq.heappop(busy)
            idle += 1
            for j in batch:
                latencies.append(now - arr[j])
                on_time.append(now <= deadline[j])
            try_dispatch(now)
        else:
            try_dispatch(t_wait)

    # Crash windows past quiescence still wipe resident state, so the
    # node's crash/lost-session accounting matches its schedule slice
    # regardless of when its arrivals stop.
    while di < len(down):
        crash(down[di][0])
        di += 1

    telemetry.record_events(depths, admits, sizes, services, latencies, on_time)
    if ctel is not None:
        ctel.record_serves(served_at, served_warm, served_reanchor)
    return ShardResult(
        node_id=stream.node_id,
        telemetry=telemetry,
        state=state.stats,
        routed=n,
        migrated_in=int(np.count_nonzero(stream.migrated)),
        chaos=ctel,
        calib=controller.telemetry if controller is not None else None,
    )
