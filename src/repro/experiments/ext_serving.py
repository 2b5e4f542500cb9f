"""Extension experiment: serving under load — the service-level Fig 13.

Fig 13 reports frames/second for VAA, PRA and Diffy on HD inputs.  A
deployed accelerator is not measured in fps, though: it is measured in
*goodput* (requests answered within their latency budget) under an
offered load it does not control.  This experiment drives all three
engines through the :mod:`repro.serve` simulation with an **identical**
seeded workload — Poisson-arriving video sessions, open loop — and
identical service knobs, so the only variable is the engine's measured
per-frame service time (cycle models × clock, scaled to HD).

The offered load is set *above* VAA's capacity and *below* Diffy's
(``LOAD_FACTOR`` × VAA capacity): VAA must shed, Diffy must not — the
serving restatement of the paper's speedup claim.  Warm sessions serve
temporal deltas when their previous-frame state is resident (bounded by
a memory cap), which is where the per-session state interacts with
scheduling: shed a frame and the session falls back to cold on its next.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.experiments.profiles import Profile, resolve_profile
from repro.serve.latency import DEFAULT_ENGINES, measure_service_times
from repro.serve.service import ServeConfig, ServingReport, serve_workload
from repro.serve.workload import WorkloadSpec, generate_requests

#: Node shape and offered load: two workers, 6-frame sessions over 40
#: units, load at 1.5x VAA's cold capacity.
WORKERS = 2
FRAMES_PER_SESSION = 6
DURATION_UNITS = 40.0
LOAD_FACTOR = 1.5


@dataclass(frozen=True)
class ServingStudyResult:
    """All three engines serving the same workload (golden-pinned)."""

    model: str
    crop: int
    resolution: tuple[int, int]
    seed: int
    workload: WorkloadSpec
    #: The shared service knobs (state capacity included).
    config: ServeConfig
    offered_rps: float
    reports: tuple[ServingReport, ...]

    __golden_properties__ = ("diffy_over_vaa_goodput", "p99_ms_by_engine")

    def report_for(self, engine: str) -> ServingReport:
        for report in self.reports:
            if report.engine == engine:
                return report
        raise KeyError(f"no report for engine {engine!r}")

    @property
    def diffy_over_vaa_goodput(self) -> float:
        """The headline: Diffy's goodput advantage at equal offered load."""
        vaa = self.report_for("VAA").goodput_rps
        diffy = self.report_for("Diffy").goodput_rps
        return diffy / vaa if vaa else float("inf")

    @property
    def p99_ms_by_engine(self) -> dict:
        return {r.engine: r.p99_ms for r in self.reports}


def run(
    *,
    model: str,
    crop: int,
    seed: int,
) -> ServingStudyResult:
    """Serve one seeded workload on every engine and compare outcomes.

    Every time constant scales with VAA's measured cold service time (the
    *unit*), so the same story — VAA saturated, Diffy comfortable — holds
    at any crop/profile: offered load is ``LOAD_FACTOR`` × VAA capacity,
    sessions stream a frame every 2 units, deadlines are 4 units, and the
    run lasts ``DURATION_UNITS`` units.
    """
    times = measure_service_times(model, engines=DEFAULT_ENGINES, crop=crop, seed=seed)
    unit = times["VAA"].cold_s
    offered_target = LOAD_FACTOR * WORKERS / unit
    spec = WorkloadSpec(
        duration_s=DURATION_UNITS * unit,
        session_rate=offered_target / FRAMES_PER_SESSION,
        frames_per_session=FRAMES_PER_SESSION,
        frame_interval_s=2.0 * unit,
        burst_on_s=4.0 * unit,
        burst_off_s=4.0 * unit,
        seed=seed,
    )
    requests = generate_requests(spec)
    config = ServeConfig(
        workers=WORKERS,
        max_batch=4,
        max_wait_s=0.25 * unit,
        queue_capacity=16,
        deadline_s=4.0 * unit,
        # Room for ~8 resident sessions: above the ~6 concurrently live
        # ones, so eviction pressure exists but warm serving dominates.
        state_capacity_bytes=8 * times[DEFAULT_ENGINES[0]].state_bytes,
    )
    reports = tuple(
        serve_workload(requests, times[engine], config, duration_s=spec.duration_s)
        for engine in DEFAULT_ENGINES
    )
    return ServingStudyResult(
        model=model,
        crop=crop,
        resolution=HD_RESOLUTION,
        seed=seed,
        workload=spec,
        config=config,
        offered_rps=len(requests) / spec.duration_s,
        reports=reports,
    )


def compute(profile: "Profile | None" = None) -> ServingStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).one_model_kwargs(64))
