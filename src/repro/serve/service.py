"""Single-node serving: the operator's knobs and one workload's report.

:func:`serve_workload` serves a pre-generated arrival stream on one
accelerator node and digests the run into a :class:`ServingReport`.  It
runs the one serving engine, :func:`repro.serve.fleet.shard.simulate_shard`
— the same engine every fleet node runs — on the whole stream: a
bounded queue with dynamic batching, a worker pool whose batch times
come from the cycle-accurate latency model (:mod:`repro.serve.latency`),
per-session temporal state (:mod:`repro.serve.state`), and telemetry
(:mod:`repro.serve.telemetry`).

Everything is deterministic: arrivals are pre-generated from a seed and
the engine itself draws no randomness.  ``tests/oracles/serve.py`` keeps
a per-event virtual-clock engine as the executable spec; the equivalence
tests pin this report to its report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serve.latency import ServiceTimes
from repro.serve.workload import Request, check_arrivals
from repro.utils.validation import (
    check_finite_nonnegative,
    check_integer,
    check_nonnegative,
    check_positive,
    check_positive_integer,
)


@dataclass(frozen=True)
class ServeConfig:
    """Service-side knobs (the things an operator tunes)."""

    workers: int = 2
    #: Requests per dispatched batch, at most.
    max_batch: int = 4
    #: How long the oldest queued request may wait for co-batching before
    #: a partial batch dispatches anyway; 0 is greedy dispatch (batches
    #: form only while every worker is busy).
    max_wait_s: float = 0.0
    queue_capacity: int = 16
    #: Latency budget per request; arrival + deadline_s is the drop-dead
    #: time for both queue shedding and goodput accounting.
    deadline_s: float = 1.0
    #: Total bytes of per-session temporal state the service may keep
    #: resident (0 disables temporal serving entirely).
    state_capacity_bytes: int = 0

    def __post_init__(self) -> None:
        for name in ("workers", "max_batch", "queue_capacity"):
            check_positive_integer(name, getattr(self, name))
        check_positive("deadline_s", self.deadline_s)
        check_finite_nonnegative("max_wait_s", self.max_wait_s)
        check_integer("state_capacity_bytes", self.state_capacity_bytes)
        check_nonnegative("state_capacity_bytes", self.state_capacity_bytes)


@dataclass(frozen=True)
class ServingReport:
    """Outcome of serving one workload on one engine (golden-friendly)."""

    engine: str
    duration_s: float
    offered_rps: float
    cold_service_s: float
    warm_service_s: float
    batch_overhead_s: float
    metrics: dict
    warm_served: int
    cold_served: int
    state_evictions: int
    state_insertions: int

    __golden_properties__ = ("goodput_rps", "p99_ms", "shed_rate", "warm_fraction")

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


def serve_workload(
    requests: Sequence[Request],
    times: ServiceTimes,
    config: ServeConfig,
    duration_s: Optional[float] = None,
) -> ServingReport:
    """Serve one arrival stream on one node to quiescence; one report.

    ``duration_s`` is the workload's generation window — the normalizer
    for offered load, goodput and utilization (default: the last
    arrival).  The engine runs until every admitted request has
    completed or been shed, so tail requests are fully accounted.  The
    stream is checked first (:func:`repro.serve.workload.check_arrivals`).
    """
    # Imported here: the fleet package imports ServeConfig from this module.
    from repro.serve.fleet.shard import ShardStream, simulate_shard

    check_arrivals(requests)
    if duration_s is None:
        duration_s = (requests[-1].arrival_s if requests else 0.0) or 1.0
    check_positive("duration_s", duration_s)
    result = simulate_shard(ShardStream(0, requests, 0), times, config)
    stats = result.state
    return ServingReport(
        engine=times.engine,
        duration_s=float(duration_s),
        offered_rps=len(requests) / duration_s,
        cold_service_s=times.cold_s,
        warm_service_s=times.warm_s,
        batch_overhead_s=times.batch_overhead_s,
        metrics=result.telemetry.snapshot(duration_s, config.workers),
        warm_served=stats.warm,
        cold_served=stats.cold,
        state_evictions=stats.evictions,
        state_insertions=stats.insertions,
    )
