"""Online recalibration: versioned tables, atomic swaps, graceful degrade.

The shape of the loop is TVM's ``_calibrater.py`` dummy-then-measured
pattern, transplanted from compile time to serve time:

1. **Dummy pass** — the instant a layer's overflow trips, the controller
   swaps in a *fallback* table that widens the affected layers to the
   safe hardware word (:data:`repro.core.precision.MAX_PRECISION`).  No
   measurement, no delay — correctness first, compression later.
2. **Measured pass** — a recalibration is scheduled; after
   ``recalib_delay_s`` (the profiling cost, priced as wall-clock during
   which the fallback widths serve) the recalibrator re-profiles from
   the shadow reservoir of recent frames and swaps in the measured
   table — narrowing only what the reservoir proves narrow.

Swaps are **atomic and versioned**: a frame is priced entirely under
one :class:`CalibrationTable` (the one its serve observed), and every
swap bumps the temporal state store's calibration version, so resident
sessions re-anchor on their next serve — recalibration downtime is paid
in cold serves, visible in the serving goldens, never hidden.

Independently of the loop, an adaptive controller **never serves a
clipped value**: any layer whose values would saturate this frame is
served at the hardware word (per-frame fallback, priced in
``clipped_values_averted`` / ``fallback_layer_serves``) — even before
the detector trips.  Static policies serve the clip and pay in PSNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.calib.drift import SLACK_MARGIN_BITS, DriftDetector
from repro.calib.shadow import FrameSample, ShadowCounters
from repro.calib.stats import (
    DEFAULT_CALIB_PROFILES,
    CalibStats,
    collect_calib_stats,
)
from repro.core.precision import MAX_PRECISION
from repro.data.synthesis import DriftSchedule
from repro.serve.telemetry import CalibTelemetry
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.serve.state import TemporalStateStore

__all__ = [
    "CALIB_MODES",
    "CalibrationTable",
    "Recalibrator",
    "FrameOutcome",
    "CalibrationController",
    "CalibSpec",
]

#: Frames per profile the offline calibration statistics are built from.
PROFILE_FRAMES = 2

#: Serving policies the controller can price.
#:
#: - ``static`` — the offline profiled table, never adapted (the
#:   baseline that clips under drift);
#: - ``static_wide`` — every layer at the hardware word (never clips,
#:   maximum traffic);
#: - ``adaptive`` — the closed control loop.
CALIB_MODES = ("static", "static_wide", "adaptive")


@dataclass(frozen=True)
class CalibrationTable:
    """One immutable generation of per-layer serving widths.

    ``source`` records provenance: ``profiled`` (offline pass),
    ``wide`` (Raw16 policy), ``fallback`` (dummy-pass widening) or
    ``recalibrated`` (measured pass from the reservoir).
    """

    version: int
    widths: "tuple[int, ...]"
    source: str

    def __post_init__(self) -> None:
        if self.version < 0:
            raise ValueError(f"version must be >= 0, got {self.version}")
        if not self.widths:
            raise ValueError("a calibration table needs at least one layer")
        if any(not 1 <= w <= MAX_PRECISION for w in self.widths):
            raise ValueError(f"widths must be in [1, {MAX_PRECISION}], got {self.widths}")
        if self.source not in ("profiled", "wide", "fallback", "recalibrated"):
            raise ValueError(f"unknown table source {self.source!r}")


class Recalibrator:
    """Width computation for both passes of the dummy-then-measured loop."""

    def __init__(self, stats: CalibStats) -> None:
        self.stats = stats

    def fallback_widths(
        self, table: CalibrationTable, layers: "set[int]"
    ) -> "tuple[int, ...]":
        """Dummy pass: widen the named layers to the safe hardware word."""
        return tuple(
            MAX_PRECISION if i in layers else w for i, w in enumerate(table.widths)
        )

    def measured_widths(self, samples: "tuple[FrameSample, ...]") -> "tuple[int, ...]":
        """Measured pass: smallest per-layer widths covering the reservoir.

        For each layer, the max of ``required_width(gain)`` over every
        reservoir sample's (profile, gain) — by construction zero values
        of any reservoir sample clip at these widths, which is the
        coverage property the property tests pin.
        """
        if not samples:
            raise ValueError("measured recalibration needs a non-empty reservoir")
        n = self.stats.n_layers
        return tuple(
            max(self.stats.layers(s.profile)[i].required_width(s.gain) for s in samples)
            for i in range(n)
        )


@dataclass(frozen=True)
class FrameOutcome:
    """What the controller decided for one served frame."""

    #: Table generation this frame was entirely priced under.
    version: int
    gain: float
    profile: str
    sampled: bool
    #: Layers whose values would saturate at their table width.
    overflow_layers: "tuple[int, ...]"
    #: Layers served at the hardware word instead (adaptive only).
    fallback_layers: "tuple[int, ...]"
    clipped_served: int
    clipped_averted: int
    traffic_bits: int
    tripped_overflow: "tuple[int, ...]"
    tripped_slack: "tuple[int, ...]"
    swapped: bool


@dataclass(frozen=True)
class CalibSpec:
    """The settings of one calibration controller, validated once here.

    Each fleet node builds its own controller from the spec with
    :meth:`build`; the profiled statistics it needs are disk-cached by
    :func:`repro.calib.stats.collect_calib_stats`, so every node's build
    is cheap and identical.
    """

    model: str
    schedule: DriftSchedule
    mode: str = "adaptive"
    crop: int = 48
    profiles: "tuple[str, ...]" = DEFAULT_CALIB_PROFILES
    sample_period: int = 4
    #: Wall-clock cost of a measured recalibration pass.
    recalib_delay_s: float = 0.05
    #: Post-swap window during which new trips are ignored.
    cooldown_s: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.mode not in CALIB_MODES:
            raise ValueError(f"mode must be one of {CALIB_MODES}, got {self.mode!r}")
        check_positive("crop", self.crop)
        check_positive("sample_period", self.sample_period)
        check_positive("recalib_delay_s", self.recalib_delay_s)
        if self.cooldown_s < 0.0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        missing = {p for p in {ph.profile for ph in self.schedule.phases}} - set(
            self.profiles
        )
        if missing:
            raise ValueError(
                f"drift schedule uses profiles {sorted(missing)} absent from the "
                f"profiling set {self.profiles}"
            )

    def build(self) -> "CalibrationController":
        return CalibrationController(
            self,
            collect_calib_stats(
                self.model,
                profiles=self.profiles,
                crop=self.crop,
                frames=PROFILE_FRAMES,
                seed=self.seed,
            ),
        )


class CalibrationController:
    """The serve loop's calibration control plane (one per service/node).

    The service calls :meth:`advance` before dispatching work at time
    ``now`` (completes any due measured pass) and :meth:`on_frame` for
    every served frame.  All decisions are pure functions of the frame's
    identity, its arrival time and the controller's own history, so runs
    are deterministic across arrival interleavings within a node.

    The mode, drift schedule, sample period, recalibration delay,
    cooldown and seed come from ``spec``; ``stats`` are the profiled
    statistics the tables are priced against.
    """

    def __init__(self, spec: CalibSpec, stats: CalibStats) -> None:
        self.stats = stats
        self.schedule = spec.schedule
        self.mode = spec.mode
        self.recalib_delay_s = spec.recalib_delay_s
        self.cooldown_s = spec.cooldown_s
        self.recalibrator = Recalibrator(stats)
        self.detector = DriftDetector(stats.n_layers)
        self.shadow = ShadowCounters(spec.sample_period, spec.seed)
        self.telemetry = CalibTelemetry(duration_s=spec.schedule.duration_s)
        if spec.mode == "static_wide":
            table = CalibrationTable(0, (MAX_PRECISION,) * stats.n_layers, "wide")
        else:
            table = CalibrationTable(0, stats.profiled_widths(), "profiled")
        self._table = table
        #: version -> table, for every generation ever active (atomicity
        #: audits read this, nothing in the serve path does).
        self.tables: "dict[int, CalibrationTable]" = {0: table}
        self._pending_ready_s: "float | None" = None
        self._cooldown_until = 0.0
        #: (profile, gain, version) -> per-layer pricing rows.
        self._price_memo: "dict[tuple[str, float, int], list[tuple]]" = {}

    @property
    def table(self) -> CalibrationTable:
        return self._table

    # ---- the two serve-path hooks ----------------------------------------

    def advance(self, now: float, state: "TemporalStateStore | None" = None) -> bool:
        """Complete a due measured recalibration; True if a swap happened.

        The measured widths are computed from the reservoir *at
        completion time* — the pass profiles what drifted in during the
        delay, which is exactly why a too-small reservoir or too-long
        delay shows up as a second overflow trip instead of silently
        serving stale widths.
        """
        if self._pending_ready_s is None or now < self._pending_ready_s:
            return False
        self._pending_ready_s = None
        samples = self.shadow.reservoir.samples()
        if not samples:
            return False  # nothing to measure from; the fallback keeps serving
        widths = self.recalibrator.measured_widths(samples)
        self._swap(now, widths, "recalibrated", recalibrated=True, state=state)
        return True

    def on_frame(
        self,
        now: float,
        session_id: int,
        frame_index: int,
        arrival_s: float,
        state: "TemporalStateStore | None" = None,
    ) -> FrameOutcome:
        """Price one served frame and run the control loop on it."""
        gain = self.schedule.gain(arrival_s)
        profile = self.schedule.profile(arrival_s)
        table = self._table  # one generation prices the whole frame
        rows = self._price(profile, gain, table)
        adaptive = self.mode == "adaptive"

        overflow = tuple(i for i, r in enumerate(rows) if r[0] > 0)
        fallback = overflow if adaptive else ()
        clipped_served = 0
        clipped_averted = 0
        clip_energy = 0.0
        traffic = 0
        wide_traffic = 0
        values = 0
        for i, (clipped, energy, _rate, _slack, n_values) in enumerate(rows):
            width = MAX_PRECISION if i in fallback else table.widths[i]
            traffic += n_values * width
            wide_traffic += n_values * MAX_PRECISION
            values += n_values
            if clipped and adaptive:
                clipped_averted += clipped
            elif clipped:
                clipped_served += clipped
                clip_energy += energy
        sampled = False
        tripped_overflow: "tuple[int, ...]" = ()
        tripped_slack: "tuple[int, ...]" = ()
        swapped = False

        if adaptive:
            sampled = self.shadow.observe(session_id, frame_index, arrival_s, profile, gain)
            past_cooldown = now >= self._cooldown_until
            tripped_overflow = tuple(
                self.detector.update_overflow(
                    [r[2] > 0.0 for r in rows], may_trip=past_cooldown
                )
            )
            if sampled:
                tripped_slack = tuple(
                    self.detector.update_slack([r[3] for r in rows], may_trip=past_cooldown)
                )
            if past_cooldown:
                if tripped_overflow:
                    self.telemetry.on_trip("overflow", len(tripped_overflow))
                    widen = set(tripped_overflow) | set(overflow)
                    widths = self.recalibrator.fallback_widths(table, widen)
                    self._swap(now, widths, "fallback", recalibrated=False, state=state)
                    self._schedule_recalibration(now)
                    swapped = True
                elif tripped_slack:
                    self.telemetry.on_trip("slack", len(tripped_slack))
                    self._schedule_recalibration(now)

        self.telemetry.on_frame(
            now,
            sampled=sampled,
            overflow_layers=len(overflow),
            fallback_layers=len(fallback),
            clipped_served=clipped_served,
            clipped_averted=clipped_averted,
            clip_energy=clip_energy,
            traffic_bits=traffic,
            wide_traffic_bits=wide_traffic,
            values=values,
        )
        return FrameOutcome(
            version=table.version,
            gain=gain,
            profile=profile,
            sampled=sampled,
            overflow_layers=overflow,
            fallback_layers=fallback,
            clipped_served=clipped_served,
            clipped_averted=clipped_averted,
            traffic_bits=traffic,
            tripped_overflow=tripped_overflow,
            tripped_slack=tripped_slack,
            swapped=swapped,
        )

    # ---- internals -------------------------------------------------------

    def _price(
        self, profile: str, gain: float, table: CalibrationTable
    ) -> "list[tuple]":
        """Per-layer (clipped, energy, overflow_rate, slack, values) rows.

        Memoized on (profile, gain, version): during gain holds every
        frame hits the cache; during ramps each distinct gain prices
        once.
        """
        key = (profile, gain, table.version)
        rows = self._price_memo.get(key)
        if rows is None:
            margin = SLACK_MARGIN_BITS
            rows = []
            for layer, width in zip(self.stats.layers(profile), table.widths):
                rows.append(
                    (
                        layer.clipped_values(width, gain),
                        layer.clip_energy(width, gain),
                        layer.overflow_groups(width, gain) / layer.sample_groups
                        if layer.sample_groups
                        else 0.0,
                        layer.slack_bits(width, gain) >= margin,
                        layer.sample_values,
                    )
                )
            self._price_memo[key] = rows
        return rows

    def _schedule_recalibration(self, now: float) -> None:
        if self._pending_ready_s is None:
            self._pending_ready_s = now + self.recalib_delay_s

    def _swap(
        self,
        now: float,
        widths: "tuple[int, ...]",
        source: str,
        recalibrated: bool,
        state: "TemporalStateStore | None",
    ) -> None:
        """Atomically install a new table generation.

        One indivisible transition: new table, version history entry,
        state-store version bump (resident sessions re-anchor — the
        priced downtime), detector reset (the new widths change what
        overflow/slack mean) and cooldown start.
        """
        table = CalibrationTable(self._table.version + 1, widths, source)
        self._table = table
        self.tables[table.version] = table
        if state is not None:
            state.set_version(table.version)
        self.detector.reset()
        self._cooldown_until = now + self.cooldown_s
        self.telemetry.on_swap(now, recalibrated)
