"""Chaos grid driver: (engine × ladder × fault-rate) over one fleet scenario.

Each grid point serves the *same* seeded workload on the same fleet
configuration under the same :class:`ChaosSchedule` timing — only the
protection ladder and storage fault rate move — so the grid isolates
what protection buys (and costs) under identical chaos.

Every cell's per-request fault outcomes are drawn from a ``fault_seed``
derived from the grid coordinate (:func:`point_fault_seed`), never from
global state or run order, so a point gives the same cell whether it
runs alone or inside a larger grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serve.chaos.schedule import ChaosSpec
from repro.serve.chaos.storage import serve_ladder
from repro.serve.fleet.service import FleetConfig, FleetReport, simulate_fleet
from repro.serve.latency import ServiceTimes
from repro.serve.service import ServeConfig
from repro.serve.workload import Request
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED, derive_seed
from repro.utils.validation import check_positive

__all__ = [
    "ChaosPoint",
    "ChaosCell",
    "ChaosGridResult",
    "point_fault_seed",
    "chaos_grid",
    "run_chaos_grid",
]


@dataclass(frozen=True)
class ChaosPoint:
    """One (engine, ladder, storage fault rate) grid coordinate."""

    engine: str
    ladder: str
    rate: float


def point_fault_seed(seed: int, point: ChaosPoint) -> int:
    """The fault-injection seed one grid point always runs under.

    Derived from the grid coordinate, not drawn from a shared stream, so
    a point's per-request fault pattern is independent of which other
    points ran or in what order.
    """
    return derive_seed(seed, "chaos-faults", point.engine, point.ladder, point.rate)


@dataclass(frozen=True)
class ChaosCell:
    """One grid point's full outcome (flat and golden-serializable)."""

    engine: str
    ladder: str
    rate: float
    #: The seed the point's fault draws actually used.
    fault_seed: int
    goodput_rps: float
    p99_ms: float
    shed_rate: float
    warm_fraction: float
    migrations: int
    reanchors_lost: int
    reanchors_cut: int
    warm_attempts: int
    storage_clean: int
    storage_corrected: int
    storage_detected: int
    storage_silent: int
    crashes: int
    crash_shed: int
    killed_in_flight: int
    sessions_lost: int
    sessions_recovered: int
    recovery_p50_ms: float
    recovery_p99_ms: float
    warm_by_bucket: tuple
    cold_by_bucket: tuple
    reanchor_by_bucket: tuple

    @property
    def silent_rate(self) -> float:
        return self.storage_silent / self.warm_attempts if self.warm_attempts else 0.0


@dataclass(frozen=True)
class ChaosGridResult:
    """All cells of one chaos grid, in grid order."""

    cells: "tuple[ChaosCell, ...]"
    seed: int
    duration_s: float
    offered_rps: float

    def __len__(self) -> int:
        return len(self.cells)

    def cell(self, engine: str, ladder: str, rate: float) -> ChaosCell:
        for c in self.cells:
            if (c.engine, c.ladder) == (engine, ladder) and c.rate == rate:
                return c
        raise KeyError(f"no cell for ({engine!r}, {ladder!r}, {rate})")


def chaos_grid(
    engines: Sequence[str], ladders: Sequence[str], rates: Sequence[float]
) -> "tuple[ChaosPoint, ...]":
    """The cartesian product, in (engine, ladder, rate) order."""
    for ladder in ladders:
        serve_ladder(ladder)  # fail fast on unknown names
    return tuple(
        ChaosPoint(e, l, float(r)) for e in engines for l in ladders for r in rates
    )


def _cell_from_report(point: ChaosPoint, fault_seed: int, report: FleetReport) -> ChaosCell:
    chaos = report.chaos or {}
    recovery = chaos.get("recovery_ms", {})
    return ChaosCell(
        engine=point.engine,
        ladder=point.ladder,
        rate=point.rate,
        fault_seed=fault_seed,
        goodput_rps=report.goodput_rps,
        p99_ms=report.p99_ms,
        shed_rate=report.shed_rate,
        warm_fraction=report.warm_fraction,
        migrations=report.migrations,
        reanchors_lost=report.reanchors_lost,
        reanchors_cut=report.reanchors_cut,
        warm_attempts=chaos.get("warm_attempts", 0),
        storage_clean=chaos.get("storage_clean", 0),
        storage_corrected=chaos.get("storage_corrected", 0),
        storage_detected=chaos.get("storage_detected", 0),
        storage_silent=chaos.get("storage_silent", 0),
        crashes=chaos.get("crashes", 0),
        crash_shed=chaos.get("crash_shed", 0),
        killed_in_flight=chaos.get("killed_in_flight", 0),
        sessions_lost=chaos.get("sessions_lost", 0),
        sessions_recovered=chaos.get("sessions_recovered", 0),
        recovery_p50_ms=float(recovery.get("p50", 0.0)),
        recovery_p99_ms=float(recovery.get("p99", 0.0)),
        warm_by_bucket=tuple(chaos.get("warm_by_bucket", ())),
        cold_by_bucket=tuple(chaos.get("cold_by_bucket", ())),
        reanchor_by_bucket=tuple(chaos.get("reanchor_by_bucket", ())),
    )


def run_chaos_grid(
    requests: Sequence[Request],
    times: "dict[str, ServiceTimes]",
    points: Sequence[ChaosPoint],
    chaos_template: ChaosSpec,
    node_config: ServeConfig,
    duration_s: float,
    nodes: int = 2,
    routing: str = "state_aware",
    session_ttl_s: Optional[float] = None,
    seed: int = DEFAULT_SEED,
) -> ChaosGridResult:
    """Serve one workload at every grid point; see module docstring.

    ``chaos_template`` carries the event schedule knobs (crash, degrade,
    burst counts and windows) and the schedule seed; each point replaces
    only its ``protection``, ``storage_rate`` and ``fault_seed``, so all
    cells execute the identical event timeline and differ purely in
    storage faults and how the ladder handles them.
    """
    check_positive("duration_s", duration_s)
    cells = []
    with timing.timed("chaos.grid"):
        for point in points:
            fault_seed = point_fault_seed(seed, point)
            spec = dataclasses.replace(
                chaos_template,
                protection=point.ladder,
                storage_rate=point.rate,
                fault_seed=fault_seed,
            )
            config = FleetConfig(
                nodes=nodes,
                routing=routing,
                node=node_config,
                session_ttl_s=session_ttl_s,
                chaos=spec,
                seed=seed,
            )
            report = simulate_fleet(requests, times[point.engine], config, duration_s)
            cells.append(_cell_from_report(point, fault_seed, report))
    return ChaosGridResult(
        cells=tuple(cells),
        seed=seed,
        duration_s=float(duration_s),
        offered_rps=len(requests) / duration_s,
    )
