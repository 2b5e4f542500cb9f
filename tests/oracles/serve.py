"""Per-event serving engine: one discrete-event loop on a virtual clock,
the executable spec :func:`repro.serve.fleet.shard.simulate_shard` (and
so ``serve_workload``) is tested against.

Every arrival, completion and wait-timer expiry is its own heap event,
ordered by ``(time, sequence)``.  All arrivals are scheduled before the
run starts, so at a tied timestamp arrivals fire first; completions fire
before the wait timer because the timer is re-armed (with a fresh
sequence number) at the end of every dispatch attempt.

The event loop:

- **arrival** — admit to the queue or shed (queue full = backpressure);
  then try to dispatch.
- **dispatch** — whenever a worker is idle and the batch policy says go
  (full batch, or the oldest request has waited out ``max_wait_s``):
  shed already-expired requests (deadline policy), pull up to
  ``max_batch``, price each request cold/warm via the state store, and
  occupy the worker for ``batch_overhead + sum(request times)``.
- **completion** — free the worker, record per-request latency and
  deadline outcome, dispatch again.

Telemetry is recorded per event, through :class:`PerEventTelemetry`'s
hooks, where the production engine buffers the events and folds them
once per shard.

Fault-free semantics only: the production engine's chaos and
calibration hooks have no counterpart here.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig, ServingReport
from repro.serve.state import StateStats, TemporalStateStore
from repro.serve.telemetry import ServeTelemetry
from repro.serve.workload import Request
from repro.utils.validation import check_positive


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class VirtualClock:
    """Deterministic discrete-event scheduler.

    ``schedule(delay, fn, *args)`` queues ``fn(*args)`` at ``now + delay``;
    ``schedule_at`` takes an absolute virtual time.  ``run`` drains the
    queue in ``(time, sequence)`` order, advancing :attr:`now` to each
    event's timestamp before invoking it.  Callbacks may schedule further
    events; scheduling into the past raises rather than silently
    reordering history.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self.fired = 0

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time:.9f} before now={self.now:.9f}")
        event = Event(float(time), next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def run(self, until: Optional[float] = None) -> float:
        """Fire events in order until the queue drains (or ``until``).

        Returns the final virtual time.  With ``until`` given, events at
        exactly ``until`` still fire; later ones stay queued.
        """
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return self.now
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self.fired += 1
            event.fn(*event.args)
        return self.now

    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for e in self._heap if not e.cancelled)


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs (the batching subset of :class:`ServeConfig`).

    ``max_batch`` caps requests per dispatched batch; ``max_wait_s`` caps
    how long the oldest queued request may wait for co-batching before a
    partial batch is dispatched anyway.  ``max_wait_s=0`` degenerates to
    greedy per-arrival dispatch (batches form only while workers are
    busy).  ``weight_stream_s``, when set, replaces the measured dense
    per-batch overhead.
    """

    max_batch: int = 4
    max_wait_s: float = 0.0
    weight_stream_s: Optional[float] = None


@dataclass(frozen=True)
class QueuedRequest:
    """A request plus the service-side timestamps policy decisions need."""

    request: Request
    admitted_s: float
    deadline_s: float  # absolute virtual time after which the answer is useless


class BoundedQueue:
    """FIFO with a depth cap and deadline-aware dequeue."""

    def __init__(self, capacity: int):
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._items: "deque[QueuedRequest]" = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, item: QueuedRequest) -> bool:
        """Admit the request unless the queue is full (backpressure)."""
        if self.full:
            return False
        self._items.append(item)
        return True

    def oldest_admitted_s(self) -> Optional[float]:
        return self._items[0].admitted_s if self._items else None

    def pop_expired(self, now: float) -> list[QueuedRequest]:
        """Shed queued requests whose deadline has already passed."""
        expired = []
        while self._items and self._items[0].deadline_s < now:
            expired.append(self._items.popleft())
        return expired

    def take(self, count: int) -> list[QueuedRequest]:
        """Dequeue up to ``count`` requests in FIFO order."""
        out = []
        while self._items and len(out) < count:
            out.append(self._items.popleft())
        return out


def batch_ready(queue: BoundedQueue, policy: BatchPolicy, now: float) -> bool:
    """Should a batch be dispatched right now (given an idle worker)?"""
    if not len(queue):
        return False
    if len(queue) >= policy.max_batch:
        return True
    oldest = queue.oldest_admitted_s()
    assert oldest is not None
    # Same expression as next_deadline_check, so a wait timer armed at
    # the expiry is guaranteed ready when it fires.  The algebraically
    # equal (now - oldest) >= max_wait_s is NOT safe: when
    # (oldest + w) - oldest rounds below w, the timer would fire, find
    # the batch not ready, and re-arm at the same instant forever.
    return now >= oldest + policy.max_wait_s


def next_deadline_check(queue: BoundedQueue, policy: BatchPolicy) -> Optional[float]:
    """Virtual time at which the oldest queued request's wait expires."""
    oldest = queue.oldest_admitted_s()
    if oldest is None:
        return None
    return oldest + policy.max_wait_s


class PerEventTelemetry(ServeTelemetry):
    """:class:`ServeTelemetry` recorded one hook call per event.

    Each hook records its sample through the scalar
    :meth:`~repro.utils.timing.StreamingHistogram.record` and adds its
    float to the running total as the event happens — the spec of the
    shard engine's buffered :meth:`ServeTelemetry.record_events` fold.
    """

    def on_arrival(self, admitted: bool, queue_depth: int) -> None:
        self.arrived += 1
        if admitted:
            self.admitted += 1
        else:
            self.shed_queue_full += 1
        self.queue_depths.record(queue_depth)
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def on_deadline_shed(self, count: int) -> None:
        self.shed_deadline += count

    def on_batch(self, size: int, service_s: float) -> None:
        self.batches += 1
        self.batch_sizes.record(size)
        self.busy_s += service_s

    def on_completion(self, latency_s: float, within_deadline: bool) -> None:
        self.completed += 1
        self.latency.record(latency_s)
        if within_deadline:
            self.good += 1
        else:
            self.late += 1


class InferenceService:
    """One engine's simulated service instance, one event at a time."""

    def __init__(self, times: ServiceTimes, config: ServeConfig):
        self.times = times
        self.config = config
        self.policy = BatchPolicy(config.max_batch, config.max_wait_s, config.weight_stream_s)
        self.queue = BoundedQueue(config.queue_capacity)
        self.state = TemporalStateStore(config.state_capacity_bytes, times.state_bytes)
        self.telemetry = PerEventTelemetry(
            max_batch=config.max_batch, queue_capacity=config.queue_capacity
        )
        self.clock = VirtualClock()
        self.idle_workers = config.workers
        self._wait_timer: Optional[Event] = None

    # ---- event handlers --------------------------------------------------

    def _on_arrival(self, request: Request) -> None:
        now = self.clock.now
        item = QueuedRequest(
            request=request,
            admitted_s=now,
            deadline_s=now + self.config.deadline_s,
        )
        admitted = self.queue.offer(item)
        self.telemetry.on_arrival(admitted, len(self.queue))
        if admitted:
            self._try_dispatch()

    def _on_completion(self, batch: "list[QueuedRequest]") -> None:
        now = self.clock.now
        self.idle_workers += 1
        for item in batch:
            latency = now - item.request.arrival_s
            self.telemetry.on_completion(latency, now <= item.deadline_s)
        self._try_dispatch()

    def _on_wait_expiry(self) -> None:
        self._wait_timer = None
        self._try_dispatch()

    # ---- scheduling ------------------------------------------------------

    def _batch_overhead_s(self) -> float:
        """Per-batch fixed cost: one weight-stream load."""
        if self.policy.weight_stream_s is not None:
            return self.policy.weight_stream_s
        return self.times.batch_overhead_s

    def _try_dispatch(self) -> None:
        now = self.clock.now
        while self.idle_workers > 0:
            expired = self.queue.pop_expired(now)
            if expired:
                self.telemetry.on_deadline_shed(len(expired))
            if not batch_ready(self.queue, self.policy, now):
                break
            batch = self.queue.take(self.policy.max_batch)
            service_s = self._batch_overhead_s()
            for item in batch:
                request = item.request
                mode = self.state.serve(
                    request.session_id, request.frame_index, scene_cut=request.scene_cut
                )
                service_s += self.times.request_s(mode, request.motion)
            self.idle_workers -= 1
            self.telemetry.on_batch(len(batch), service_s)
            self.clock.schedule(service_s, self._on_completion, batch)
        self._arm_wait_timer()

    def _arm_wait_timer(self) -> None:
        """Keep exactly one timer at the oldest request's wait expiry."""
        if self._wait_timer is not None:
            self._wait_timer.cancel()
            self._wait_timer = None
        expiry = next_deadline_check(self.queue, self.policy)
        if expiry is not None and self.idle_workers > 0:
            self._wait_timer = self.clock.schedule_at(
                max(expiry, self.clock.now), self._on_wait_expiry
            )

    # ---- driver ----------------------------------------------------------

    def run(self, requests: Sequence[Request], duration_s: float) -> ServingReport:
        """Serve a pre-generated arrival stream to quiescence.

        ``duration_s`` is the workload's generation window — the
        normalizer for offered load, goodput and utilization.  The loop
        runs until every admitted request has completed or been shed.
        """
        check_positive("duration_s", duration_s)
        for request in requests:
            self.clock.schedule_at(request.arrival_s, self._on_arrival, request)
        self.clock.run()
        stats: StateStats = self.state.stats
        return ServingReport(
            engine=self.times.engine,
            duration_s=float(duration_s),
            offered_rps=len(requests) / duration_s,
            cold_service_s=self.times.cold_s,
            warm_service_s=self.times.warm_s,
            batch_overhead_s=self._batch_overhead_s(),
            metrics=self.telemetry.snapshot(duration_s, self.config.workers),
            warm_served=stats.warm,
            cold_served=stats.cold,
            state_evictions=stats.evictions,
            state_insertions=stats.insertions,
        )
