"""Chaos grid driver: (engine × ladder × fault-rate) over one fleet scenario.

Each grid point serves the *same* seeded workload on the same fleet
configuration under the same :class:`ChaosSchedule` timing — only the
protection ladder and storage fault rate move — so the grid isolates
what protection buys (and costs) under identical chaos.

Resume determinism is the part that earns its keep: every cell's
per-request fault outcomes are drawn from a ``fault_seed`` derived from
the grid coordinate (:func:`point_fault_seed`), never from global state
or completion order.  The JSONL checkpoint records each cell's fault
seed next to its results, and :meth:`_Checkpoint.load` re-derives and
cross-checks it — a resumed run either reruns the missing points with
byte-identical fault patterns or refuses loudly, it cannot silently
continue a grid whose fault schedule drifted (different root seed,
renamed ladder, edited rate list).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.cache.store import stable_digest
from repro.experiments.common import format_table
from repro.serve.chaos.schedule import ChaosSpec, generate_schedule, overload_requests
from repro.serve.chaos.storage import serve_ladder
from repro.serve.fleet.service import FleetConfig, FleetReport, simulate_fleet
from repro.serve.latency import ServiceTimes, measure_service_times
from repro.serve.service import ServeConfig
from repro.serve.workload import (
    Request,
    WorkloadSpec,
    apply_scene_dynamics,
    generate_requests,
)
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
    "CHECKPOINT_VERSION",
]

#: Checkpoint file format version (bump on layout changes).
CHECKPOINT_VERSION = 1


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
    points ran, in what order, or whether the run is fresh or resumed.
    """
    return derive_seed(seed, "chaos-faults", point.engine, point.ladder, point.rate)


@dataclass(frozen=True)
class ChaosCell:
    """One grid point's full outcome (flat and golden-serializable)."""

    engine: str
    ladder: str
    rate: float
    #: The seed the point's fault draws actually used (checkpointed and
    #: cross-checked on resume).
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


# --------------------------------------------------------------------------
# Checkpointing


def _cell_to_json(cell: ChaosCell) -> dict:
    return {"kind": "row", "cell": dataclasses.asdict(cell)}


def _cell_from_json(doc: dict) -> ChaosCell:
    cell = dict(doc["cell"])
    for name in ("warm_by_bucket", "cold_by_bucket", "reanchor_by_bucket"):
        cell[name] = tuple(cell[name])
    return ChaosCell(**cell)


class _Checkpoint:
    """Crash-safe JSONL checkpoint with fault-seed verification.

    A meta header pins a settings digest, each completed cell is one
    flushed line, and a torn final line is tolerated.  On top of that,
    each row carries the fault seed its cell ran under, and loading
    re-derives the seed the current grid would use for that coordinate.
    A mismatch raises — resuming must rerun missing points under the
    *same* fault schedule the finished points saw, or the grid's cells
    are not comparable.
    """

    def __init__(self, path: "str | os.PathLike", digest: str, seed: int):
        self.path = Path(path)
        self.digest = digest
        self.seed = seed

    def _meta_line(self) -> str:
        return json.dumps(
            {"kind": "meta", "version": CHECKPOINT_VERSION, "digest": self.digest}
        )

    def load(self, resume: bool) -> "dict[ChaosPoint, ChaosCell]":
        if not resume or not self.path.is_file():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(self._meta_line() + "\n", encoding="utf-8")
            return {}
        done: "dict[ChaosPoint, ChaosCell]" = {}
        meta = None
        valid_end = 0
        with open(self.path, "rb") as fh:
            while True:
                line = fh.readline()
                if not line:
                    break
                try:
                    doc = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    timing.count("chaos.checkpoint_torn_line")
                    break
                if not line.endswith(b"\n"):
                    timing.count("chaos.checkpoint_torn_line")
                    break
                if doc.get("kind") == "meta":
                    meta = doc
                elif doc.get("kind") == "row":
                    cell = _cell_from_json(doc)
                    point = ChaosPoint(cell.engine, cell.ladder, cell.rate)
                    expected = point_fault_seed(self.seed, point)
                    if cell.fault_seed != expected:
                        raise ValueError(
                            f"checkpoint {self.path} row for {point} ran under fault "
                            f"seed {cell.fault_seed}, but this grid derives "
                            f"{expected}; refusing to resume a drifted fault schedule"
                        )
                    done[point] = cell
                valid_end = fh.tell()
        if valid_end < self.path.stat().st_size:
            with open(self.path, "rb+") as fh:
                fh.truncate(valid_end)
        if meta is None:
            raise ValueError(f"checkpoint {self.path} has no meta header")
        if meta.get("version") != CHECKPOINT_VERSION or meta.get("digest") != self.digest:
            raise ValueError(
                f"checkpoint {self.path} was written by a different chaos grid "
                "configuration; refusing to resume (delete it or drop --resume)"
            )
        timing.count("chaos.checkpoint_resumed_rows", len(done))
        return done

    def append(self, cell: ChaosCell) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(_cell_to_json(cell)) + "\n")
            fh.flush()


# --------------------------------------------------------------------------
# Grid runner


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
    max_workers: int = 0,
    checkpoint: "str | os.PathLike | None" = None,
    resume: bool = False,
) -> ChaosGridResult:
    """Serve one workload at every grid point; see module docstring.

    ``chaos_template`` carries the event schedule knobs (crash, degrade,
    burst counts and windows) and the schedule seed; each point replaces
    only its ``protection``, ``storage_rate`` and ``fault_seed``, so all
    cells execute the identical event timeline and differ purely in
    storage faults and how the ladder handles them.  ``max_workers``
    fans each cell's shards out (the cells themselves run serially —
    each one already saturates the pool).
    """
    check_positive("duration_s", duration_s)
    points = tuple(points)
    done: "dict[ChaosPoint, ChaosCell]" = {}
    ckpt: Optional[_Checkpoint] = None
    if checkpoint is not None:
        digest = stable_digest(
            "chaos-checkpoint",
            points,
            chaos_template,
            node_config,
            float(duration_s),
            nodes,
            routing,
            session_ttl_s,
            seed,
            len(requests),
        )
        ckpt = _Checkpoint(checkpoint, digest, seed)
        done = ckpt.load(resume)

    with timing.timed("chaos.grid"):
        for point in points:
            if point in done:
                continue
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
            report = simulate_fleet(
                requests, times[point.engine], config, duration_s, max_workers=max_workers
            )
            cell = _cell_from_report(point, fault_seed, report)
            done[point] = cell
            if ckpt is not None:
                ckpt.append(cell)
    return ChaosGridResult(
        cells=tuple(done[p] for p in points),
        seed=seed,
        duration_s=float(duration_s),
        offered_rps=len(requests) / duration_s,
    )


def format_result(result: ChaosGridResult) -> str:
    rows = [
        (
            c.engine,
            c.ladder,
            f"{c.rate:g}",
            f"{c.goodput_rps:.2f}",
            f"{100 * c.warm_fraction:.0f}%",
            str(c.storage_detected),
            str(c.storage_silent),
            str(c.sessions_recovered),
            f"{c.recovery_p99_ms:.0f}",
        )
        for c in result.cells
    ]
    return format_table(
        [
            "engine",
            "ladder",
            "rate",
            "goodput rps",
            "warm",
            "detected",
            "silent",
            "recovered",
            "rec p99 ms",
        ],
        rows,
        title=f"chaos grid ({len(result.cells)} cells, offered {result.offered_rps:.1f} rps)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="DnCNN")
    parser.add_argument("--crop", type=int, default=48)
    parser.add_argument("--engines", nargs="+", default=["VAA", "Diffy"])
    parser.add_argument("--ladders", nargs="+", default=["none", "full"])
    parser.add_argument("--rates", nargs="+", type=float, default=[0.0, 1e-4])
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--workers", type=int, default=0, help="shard pool size (0 = serial)")
    parser.add_argument("--checkpoint", default=None)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    times = measure_service_times(args.model, engines=tuple(args.engines), crop=args.crop)
    unit = times[args.engines[0]].cold_s
    spec = WorkloadSpec(
        duration_s=40.0 * unit,
        session_rate=1.4 * args.nodes * 2 / unit / 6,
        frames_per_session=6,
        frame_interval_s=2.0 * unit,
    )
    requests = apply_scene_dynamics(generate_requests(spec), cut_probability=0.02)
    template = ChaosSpec(
        crashes=1,
        crash_downtime_s=4.0 * unit,
        degrades=1,
        degrade_len_s=6.0 * unit,
        bursts=1,
        burst_len_s=6.0 * unit,
        burst_load_mult=1.5,
    )
    schedule = generate_schedule(template, spec.duration_s, range(args.nodes))
    extra = overload_requests(spec, schedule, first_session_id=10**6)
    merged = sorted(requests + extra, key=lambda r: (r.arrival_s, r.session_id, r.frame_index))
    result = run_chaos_grid(
        merged,
        times,
        chaos_grid(args.engines, args.ladders, args.rates),
        template,
        ServeConfig(
            workers=2,
            max_batch=4,
            max_wait_s=0.0,
            queue_capacity=16,
            deadline_s=4.0 * unit,
            state_capacity_bytes=8 * times[args.engines[0]].state_bytes,
        ),
        spec.duration_s,
        nodes=args.nodes,
        max_workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(format_result(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
