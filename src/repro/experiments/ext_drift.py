"""Extension experiment: precision drift and self-healing recalibration.

The paper's profiled per-layer precisions (Table III) are a *static*
calibration: they are measured once, offline, on profiling inputs, and
a real deployment then serves whatever the world sends.  This
experiment quantifies what happens when the input distribution drifts
away from the profiling set — a brightness/contrast gain ramp plus a
scene-statistics shift, generated by
:func:`repro.data.synthesis.generate_drift_schedule` — and whether the
closed-loop calibration controller (:mod:`repro.calib`) heals it.

One seeded variable-frame-rate workload (with scene cuts and motion
bursts overlaid) runs on a Diffy fleet per grid cell; the grid sweeps
**calibration policy × drift magnitude**:

- ``static`` — the paper's profiled widths, served unconditionally.
  Under upward gain drift, activations overflow their profiled widths
  and are served *clipped*: the cell's PSNR proxy drops from infinity
  to a finite number, the honest accuracy price of déjà-vu calibration.
- ``static_wide`` — every layer at the raw 16-bit width: never clips,
  but pays the full traffic the profiled precisions exist to avoid.
- ``adaptive`` — the control loop: shadow counters sample served
  frames, EWMA drift detectors trip on overflow/slack, an overflowing
  layer is *immediately* widened to 16 bits for the frames that need it
  (clipped values are averted, never served), and a tripped detector
  schedules a measured recalibration whose table swaps in atomically —
  resident sessions re-anchor cold (``reanchors_recal``), pricing the
  recalibration downtime in the serving metrics.

Every cell serves the identical request stream (drift perturbs
activation magnitudes, not arrivals), so differences between cells are
purely the calibration policy's behaviour.  The golden-pinned claims:
the adaptive loop serves **zero clipped values** at every drift
magnitude while static serves thousands; at magnitude 1.0 the loop
never false-trips; after the last drift event settles the loop stops
leaning on per-frame fallback within a bounded number of telemetry
buckets; and recovered adaptive traffic stays below the raw-width
ceiling.  All cells are byte-deterministic across cold runs, so the
experiment carries ci/full goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.calib.recalibrate import CALIB_MODES, CalibSpec
from repro.data.synthesis import generate_drift_schedule
from repro.experiments.profiles import Profile, resolve_profile
from repro.serve.fleet.service import FleetConfig, FleetReport, simulate_fleet
from repro.serve.latency import measure_service_times
from repro.serve.service import ServeConfig
from repro.serve.workload import (
    WorkloadSpec,
    apply_scene_dynamics,
    generate_vfr_requests,
)

#: VAA is measured only for the time unit; the fleet serves on Diffy
#: (the design whose profiled precisions the drift attacks).
DRIFT_ENGINES = ("VAA", "Diffy")

#: Drift-magnitude grids per profile scale.  Magnitude 1.0 is the
#: no-drift control (false-positive check); the drifting magnitudes are
#: chosen above the loop's trip floor — their upward excursions push
#: group overflow rates past the detector threshold, so every drifting
#: cell exercises the full trip -> fallback -> recalibrate -> swap
#: cycle rather than only the per-frame fallback.
CI_MAGNITUDES = (1.0, 1.8)
FULL_MAGNITUDES = (1.0, 1.6, 2.0, 2.5)
CI_NODES = 2
FULL_NODES = 4

#: Serving deadline, in units of VAA's cold service time.
DEADLINE_UNITS = 2.5

#: Drift events per schedule, and the recalibration pass's delay and
#: post-swap cooldown in units.
DRIFT_EVENTS = 2
RECALIB_DELAY_UNITS = 2.0
COOLDOWN_UNITS = 4.0

#: Node shape and workload: two workers and a 32-deep queue per node,
#: 10-frame sessions over 48 units, load at 1.0x the fleet's Diffy cold
#: capacity (see :func:`run`), and a calibration sample every 4th frame.
WORKERS = 2
QUEUE_CAPACITY = 32
FRAMES_PER_SESSION = 10
DURATION_UNITS = 48.0
LOAD_FACTOR = 1.0
SAMPLE_PERIOD = 4

#: Buckets of settling grace after the last drift ramp ends: one for
#: the bucket the ramp end lands in, one for the detector's EWMA lag
#: plus the scheduled recalibration delay.
RECOVERY_GRACE_BUCKETS = 2


@dataclass(frozen=True)
class DriftCell:
    """One (calibration mode × drift magnitude) fleet run, flattened."""

    mode: str
    magnitude: float
    # -- serving surface (same metrics as the fleet study) --------------
    goodput_rps: float
    p99_ms: float
    shed_rate: float
    warm_fraction: float
    #: Cold re-anchors forced by calibration-table swaps — the priced
    #: recalibration downtime (0 for the static policies).
    reanchors_recal: int
    # -- calibration-loop counters (merged over nodes) -------------------
    frames: int
    sampled_frames: int
    overflow_frames: int
    clipped_values_served: int
    clipped_values_averted: int
    fallback_layer_serves: int
    trips_overflow: int
    trips_slack: int
    swaps: int
    recalibrations: int
    psnr_db: float
    traffic_bits: int
    wide_traffic_bits: int
    traffic_ratio_vs_wide: float
    values_total: int
    # -- time series (fleet-merged telemetry buckets) --------------------
    overflow_by_bucket: tuple
    fallback_by_bucket: tuple
    swap_by_bucket: tuple

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("trips",)

    @property
    def trips(self) -> int:
        """Recalibration triggers of either kind (overflow or slack)."""
        return self.trips_overflow + self.trips_slack


def _cell(mode: str, magnitude: float, report: FleetReport) -> DriftCell:
    calib = report.calib
    assert calib is not None  # every grid cell runs calibrated
    return DriftCell(
        mode=mode,
        magnitude=float(magnitude),
        goodput_rps=report.goodput_rps,
        p99_ms=report.p99_ms,
        shed_rate=report.shed_rate,
        warm_fraction=report.warm_fraction,
        reanchors_recal=report.reanchors_recal,
        frames=int(calib["frames"]),
        sampled_frames=int(calib["sampled_frames"]),
        overflow_frames=int(calib["overflow_frames"]),
        clipped_values_served=int(calib["clipped_values_served"]),
        clipped_values_averted=int(calib["clipped_values_averted"]),
        fallback_layer_serves=int(calib["fallback_layer_serves"]),
        trips_overflow=int(calib["trips_overflow"]),
        trips_slack=int(calib["trips_slack"]),
        swaps=int(calib["swaps"]),
        recalibrations=int(calib["recalibrations"]),
        psnr_db=float(calib["psnr_db"]),
        traffic_bits=int(calib["traffic_bits"]),
        wide_traffic_bits=int(calib["wide_traffic_bits"]),
        traffic_ratio_vs_wide=float(calib["traffic_ratio_vs_wide"]),
        values_total=int(calib["values_total"]),
        overflow_by_bucket=tuple(calib["overflow_by_bucket"]),
        fallback_by_bucket=tuple(calib["fallback_by_bucket"]),
        swap_by_bucket=tuple(calib["swap_by_bucket"]),
    )


@dataclass(frozen=True)
class DriftStudyResult:
    """The full drift-and-recovery study (golden-pinned)."""

    model: str
    crop: int
    resolution: tuple
    seed: int
    modes: tuple
    magnitudes: tuple
    nodes: int
    workers: int
    load_factor: float
    frames_per_session: int
    duration_units: float
    duration_s: float
    offered_rps: float
    drift_events: int
    sample_period: int
    recalib_delay_units: float
    cooldown_units: float
    node_config: ServeConfig
    cells: "tuple[DriftCell, ...]"

    __golden_properties__ = (
        "clipped_served_by_mode",
        "zero_clipped_under_control",
        "static_clips_under_drift",
        "no_false_trips",
        "recovery",
        "psnr_by_mode",
        "traffic_by_mode",
        "adaptive_saves_traffic",
    )

    def cell(self, mode: str, magnitude: float) -> DriftCell:
        for c in self.cells:
            if c.mode == mode and c.magnitude == magnitude:
                return c
        raise KeyError(f"no cell for ({mode!r}, {magnitude})")

    @property
    def drifting_magnitudes(self) -> "tuple[float, ...]":
        return tuple(m for m in self.magnitudes if m > 1.0)

    @property
    def clipped_served_by_mode(self) -> dict:
        """Clipped values actually served, per mode × magnitude."""
        return {
            mode: {f"{m:g}": self.cell(mode, m).clipped_values_served for m in self.magnitudes}
            for mode in self.modes
        }

    @property
    def zero_clipped_under_control(self) -> bool:
        """The loop's hard guarantee: adaptive and raw-width cells never
        serve a clipped value, at any drift magnitude — an overflowing
        layer is served at 16 bits *before* the detector has tripped."""
        return all(
            self.cell(mode, m).clipped_values_served == 0
            for mode in self.modes
            if mode != "static"
            for m in self.magnitudes
        )

    @property
    def static_clips_under_drift(self) -> dict:
        """Whether the paper's static calibration clips at each drifting
        magnitude (every schedule's first excursion ramps upward)."""
        return {
            f"{m:g}": self.cell("static", m).clipped_values_served > 0
            for m in self.drifting_magnitudes
        }

    @property
    def no_false_trips(self) -> dict:
        """The no-drift control: at magnitude 1.0 the adaptive loop must
        be a perfect bystander — no trips, swaps, fallbacks or averted
        values, and no recalibration re-anchors charged to serving."""
        c = self.cell("adaptive", 1.0)
        return {
            "trips_overflow": c.trips_overflow,
            "trips_slack": c.trips_slack,
            "swaps": c.swaps,
            "fallback_layer_serves": c.fallback_layer_serves,
            "clipped_values_averted": c.clipped_values_averted,
            "reanchors_recal": c.reanchors_recal,
            "clean": (
                c.trips_overflow == 0
                and c.trips_slack == 0
                and c.swaps == 0
                and c.fallback_layer_serves == 0
                and c.clipped_values_averted == 0
                and c.reanchors_recal == 0
            ),
        }

    def _settle_bucket(self, magnitude: float, buckets: int) -> int:
        """Telemetry bucket in which the last drift ramp finishes.

        Regenerated from the (seed-pinned) schedule, not scanned from
        the data — tail noise cannot masquerade as a late drift event.
        """
        schedule = generate_drift_schedule(
            self.duration_s, magnitude, events=self.drift_events, seed=self.seed
        )
        settle_s = max(p.start_s + p.ramp_s for p in schedule.phases)
        return min(buckets - 1, max(0, int(settle_s / self.duration_s * buckets)))

    @property
    def recovery(self) -> dict:
        """Bounded recovery per drifting magnitude (adaptive cells).

        After the last gain ramp settles, the recalibrated table covers
        the drifted inputs, so per-frame fallback and group overflow
        must die out within :data:`RECOVERY_GRACE_BUCKETS` buckets —
        the loop serves the drifted world at *measured* widths instead
        of leaning on the 16-bit escape hatch forever.
        """
        out: dict = {}
        for m in self.drifting_magnitudes:
            c = self.cell("adaptive", m)
            buckets = len(c.fallback_by_bucket)
            settle = self._settle_bucket(m, buckets)
            active = [
                i
                for i in range(buckets)
                if c.fallback_by_bucket[i] > 0 or c.overflow_by_bucket[i] > 0
            ]
            last_active = active[-1] if active else -1
            deadline = min(settle + RECOVERY_GRACE_BUCKETS, buckets - 1)
            # A magnitude whose excursions never exceed the profiled
            # headroom disturbs nothing (model-dependent); recovery is
            # then vacuous rather than failed.
            disturbed = c.overflow_frames > 0 or c.fallback_layer_serves > 0
            out[f"{m:g}"] = {
                "settle_bucket": settle,
                "last_active_bucket": last_active,
                "recovery_deadline_bucket": deadline,
                "swaps": c.swaps,
                "recalibrations": c.recalibrations,
                "reanchors_recal": c.reanchors_recal,
                "disturbed": disturbed,
                "recovered": (
                    c.recalibrations > 0 and last_active <= deadline
                    if disturbed
                    else True
                ),
            }
        return out

    @property
    def psnr_by_mode(self) -> dict:
        """PSNR proxy per mode × magnitude: infinite when no value was
        ever clipped, finite (lower = worse) once clipping is served."""
        return {
            mode: {f"{m:g}": self.cell(mode, m).psnr_db for m in self.magnitudes}
            for mode in self.modes
        }

    @property
    def traffic_by_mode(self) -> dict:
        """Activation traffic relative to raw 16-bit, per mode × magnitude."""
        return {
            mode: {f"{m:g}": self.cell(mode, m).traffic_ratio_vs_wide for m in self.magnitudes}
            for mode in self.modes
        }

    @property
    def adaptive_saves_traffic(self) -> bool:
        """Adaptive traffic stays strictly below the raw-width ceiling at
        every magnitude: fallback and recalibrated-width frames still
        carry compressed layers, so healing never costs full traffic."""
        return all(
            self.cell("adaptive", m).traffic_ratio_vs_wide < 1.0 for m in self.magnitudes
        )


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    magnitudes: tuple = FULL_MAGNITUDES,
    nodes: int = FULL_NODES,
) -> DriftStudyResult:
    """Sweep every calibration mode × drift magnitude on one seeded workload.

    Time constants scale with VAA's measured cold service time (the
    *unit*), as in the other serving studies; offered load is sized to
    ``LOAD_FACTOR`` × the fleet's Diffy cold capacity, so the fleet is
    comfortably provisioned and differences between cells come from the
    calibration policy, not queueing collapse.  The workload is
    variable-frame-rate (sessions renegotiate cadence mid-stream) with
    scene cuts and motion bursts overlaid — the drift detector must
    hold its false-positive guarantee under all of that churn.
    """
    times = measure_service_times(model, engines=DRIFT_ENGINES, crop=crop, seed=seed)
    unit = times["VAA"].cold_s
    serve_times = times["Diffy"]
    spec = WorkloadSpec(
        duration_s=DURATION_UNITS * unit,
        session_rate=LOAD_FACTOR * nodes * WORKERS / serve_times.cold_s / FRAMES_PER_SESSION,
        frames_per_session=FRAMES_PER_SESSION,
        frame_interval_s=2.0 * unit,
        seed=seed,
    )
    requests = apply_scene_dynamics(
        generate_vfr_requests(spec, switch_probability=0.15),
        cut_probability=0.02,
        burst_probability=0.05,
        seed=seed,
    )
    node_config = ServeConfig(
        workers=WORKERS,
        max_batch=4,
        max_wait_s=0.0,
        queue_capacity=QUEUE_CAPACITY,
        deadline_s=DEADLINE_UNITS * unit,
        state_capacity_bytes=48 * serve_times.state_bytes,
    )
    session_ttl_s = (2.0 * FRAMES_PER_SESSION + 8.0) * unit
    cells = []
    for mode in CALIB_MODES:
        for magnitude in magnitudes:
            calib = CalibSpec(
                model=model,
                schedule=generate_drift_schedule(
                    spec.duration_s, magnitude, events=DRIFT_EVENTS, seed=seed
                ),
                mode=mode,
                crop=crop,
                sample_period=SAMPLE_PERIOD,
                recalib_delay_s=RECALIB_DELAY_UNITS * unit,
                cooldown_s=COOLDOWN_UNITS * unit,
                seed=seed,
            )
            report = simulate_fleet(
                requests,
                serve_times,
                FleetConfig(
                    nodes=nodes,
                    routing="state_aware",
                    node=node_config,
                    session_ttl_s=session_ttl_s,
                    calib=calib,
                    seed=seed,
                ),
                spec.duration_s,
            )
            cells.append(_cell(mode, magnitude, report))
    return DriftStudyResult(
        model=model,
        crop=crop,
        resolution=HD_RESOLUTION,
        seed=seed,
        modes=CALIB_MODES,
        magnitudes=tuple(float(m) for m in magnitudes),
        nodes=nodes,
        workers=WORKERS,
        load_factor=LOAD_FACTOR,
        frames_per_session=FRAMES_PER_SESSION,
        duration_units=DURATION_UNITS,
        duration_s=spec.duration_s,
        offered_rps=len(requests) / spec.duration_s,
        drift_events=DRIFT_EVENTS,
        sample_period=SAMPLE_PERIOD,
        recalib_delay_units=RECALIB_DELAY_UNITS,
        cooldown_units=COOLDOWN_UNITS,
        node_config=node_config,
        cells=tuple(cells),
    )


def compute(profile: "Profile | None" = None) -> DriftStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    p = resolve_profile(profile)
    full = p.name == "full"
    return run(
        **p.one_model_kwargs(64),
        magnitudes=FULL_MAGNITUDES if full else CI_MAGNITUDES,
        nodes=FULL_NODES if full else CI_NODES,
    )
