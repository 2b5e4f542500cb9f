"""Latency/throughput telemetry for the serving simulation.

Built on :class:`repro.utils.timing.StreamingHistogram` rather than raw
sample lists: histograms are fixed-size no matter how long the run, they
merge exactly across fleet shards, and their
percentile estimates are deterministic — which is what lets serving
goldens be byte-identical.

One :class:`ServeTelemetry` instance records one node's run.  The shard
engine buffers what each event observes (queue depth per arrival, size
and service time per batch, latency per completion) and folds the
buffers in once, after quiescence, through
:meth:`ServeTelemetry.record_events`.  The fold is exact: histogram bins
are the per-sample ``bisect`` bins, and the float totals (latency sum,
busy time) add left to right in event order, so they are the same
floats a per-event recorder would produce — not a function of how the
caller chunks the events.  Its :meth:`snapshot` is the
golden-serializable digest the experiment and benchmark layers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.timing import FieldMerge, StreamingHistogram, fold_sum
from repro.utils.validation import check_positive

#: Latency bins: log-spaced from 100 µs to 1000 s.  Log spacing keeps
#: relative resolution constant (~5.6% per bin with 288 bins), so p99
#: estimates stay tight from millisecond to minute regimes.
LATENCY_LO_S = 1e-4
LATENCY_HI_S = 1e3
LATENCY_BINS = 288


def latency_histogram() -> StreamingHistogram:
    return StreamingHistogram(LATENCY_LO_S, LATENCY_HI_S, LATENCY_BINS, log=True)


def linear_histogram(hi: int) -> StreamingHistogram:
    """Unit-wide integer bins covering 0..hi (batch sizes, queue depths)."""
    return StreamingHistogram(-0.5, hi + 0.5, hi + 1, log=False)


@dataclass
class ServeTelemetry(FieldMerge):
    """All counters and distributions of one simulated serving run."""

    __merge_window__ = ("max_batch", "queue_capacity")
    __merge_max__ = ("max_queue_depth",)

    max_batch: int
    queue_capacity: int
    latency: StreamingHistogram = field(default_factory=latency_histogram)
    batch_sizes: StreamingHistogram = field(init=False)
    queue_depths: StreamingHistogram = field(init=False)
    arrived: int = 0
    admitted: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    completed: int = 0
    good: int = 0  # completed within deadline
    late: int = 0  # completed but past deadline
    batches: int = 0
    busy_s: float = 0.0
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        self.batch_sizes = linear_histogram(self.max_batch)
        self.queue_depths = linear_histogram(self.queue_capacity)

    # ---- recording -------------------------------------------------------

    def record_events(
        self, queue_depths, admitted, batch_sizes, service_s, latencies, on_time
    ) -> None:
        """Fold one run's buffered events into the record, once.

        ``queue_depths``/``admitted`` hold one entry per arrival,
        ``batch_sizes``/``service_s`` one per batch in dispatch order, and
        ``latencies``/``on_time`` (met the deadline) one per completed
        request in completion order.  The result equals recording each
        event as it happened: the histograms go through the exact
        :meth:`~repro.utils.timing.StreamingHistogram.record_values` and
        ``busy_s`` through the sequential :func:`~repro.utils.timing.fold_sum`.
        """
        depths = np.asarray(queue_depths)
        arrived = len(depths)
        admitted_n = int(np.count_nonzero(admitted))
        self.arrived += arrived
        self.admitted += admitted_n
        self.shed_queue_full += arrived - admitted_n
        self.queue_depths.record_values(depths)
        if arrived:
            self.max_queue_depth = max(self.max_queue_depth, int(depths.max()))
        self.batches += len(batch_sizes)
        self.batch_sizes.record_values(batch_sizes)
        self.busy_s = fold_sum(self.busy_s, service_s)
        completed = len(latencies)
        good = int(np.count_nonzero(on_time))
        self.completed += completed
        self.good += good
        self.late += completed - good
        self.latency.record_values(latencies)

    # ---- derived metrics -------------------------------------------------

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batch_sizes.mean

    def goodput_rps(self, duration_s: float) -> float:
        return self.good / duration_s

    def snapshot(self, duration_s: float, workers: int = 1) -> dict:
        """Golden-serializable digest of the run."""
        lat = self.latency.summary()
        return {
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "shed_rate": self.shed_rate,
            "completed": self.completed,
            "good": self.good,
            "late": self.late,
            "goodput_rps": self.goodput_rps(duration_s),
            "latency_ms": {
                "mean": lat["mean"] * 1e3,
                "p50": lat["p50"] * 1e3,
                "p95": lat["p95"] * 1e3,
                "p99": lat["p99"] * 1e3,
                "max": lat["max"] * 1e3,
            },
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": self.max_queue_depth,
            "utilization": self.busy_s / (duration_s * workers) if duration_s else 0.0,
        }


#: Time buckets of the calibration traffic/overflow/fallback series.
CALIB_BUCKETS = 24

#: Peak signal of the PSNR proxy: the 16-bit signed word's full scale.
CALIB_PEAK = (1 << 15) - 1


@dataclass
class CalibTelemetry(FieldMerge):
    """Counters of the precision-calibration control loop for one run.

    Kept separate from :class:`ServeTelemetry` on purpose: the
    calibration-free serving counters (and the goldens pinned on them)
    stay byte-identical whether or not the control loop is attached, and
    calibrated runs get the loop-specific counters the drift postmortem
    asks for — what clipped (or would have), what the fallback averted,
    when the loop tripped/swapped, and the traffic price of each policy.

    Value counts are in *profiling-sample units*: each served frame
    contributes its scene profile's full per-layer sample counts
    (:attr:`repro.calib.stats.LayerStats.sample_values`), so rates and
    PSNR are exact integer/rational arithmetic and merge exactly across
    fleet nodes (the fleet layer pins ascending node-id merge order).
    """

    __merge_window__ = ("duration_s", "buckets")

    duration_s: float
    buckets: int = CALIB_BUCKETS
    #: Frames the attached service actually served.
    frames: int = 0
    #: Frames the shadow sampler profiled (slack watch + reservoir).
    sampled_frames: int = 0
    #: Frames where >= 1 layer overflowed its serving width.
    overflow_frames: int = 0
    #: Values served saturated (static policies only — the harm metric).
    clipped_values_served: int = 0
    #: Values the per-frame Raw16 fallback kept from saturating.
    clipped_values_averted: int = 0
    #: Layer-frames served at the safe fallback width instead of their
    #: table width (the compression price of "never serve clipped").
    fallback_layer_serves: int = 0
    trips_overflow: int = 0
    trips_slack: int = 0
    #: Atomic table swaps (degrade + recalibrated together).
    swaps: int = 0
    #: Measured (reservoir-profiled) recalibration passes completed.
    recalibrations: int = 0
    #: Sum of squared clip errors of *served* values (PSNR numerator).
    clip_energy: float = 0.0
    #: Activation traffic actually served, in bits (sample units).
    traffic_bits: int = 0
    #: Traffic the Raw16 static-wide policy would have served.
    wide_traffic_bits: int = 0
    #: Values served, in sample units (rate/PSNR denominator).
    values_total: int = 0
    traffic_by_bucket: np.ndarray = field(init=False)
    overflow_by_bucket: np.ndarray = field(init=False)
    fallback_by_bucket: np.ndarray = field(init=False)
    swap_by_bucket: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        check_positive("buckets", self.buckets)
        self.traffic_by_bucket = np.zeros(self.buckets, dtype=np.int64)
        self.overflow_by_bucket = np.zeros(self.buckets, dtype=np.int64)
        self.fallback_by_bucket = np.zeros(self.buckets, dtype=np.int64)
        self.swap_by_bucket = np.zeros(self.buckets, dtype=np.int64)

    def bucket(self, t: float) -> int:
        """Bucket index of time ``t`` (tail work clamps into the last)."""
        return min(self.buckets - 1, max(0, int(t / self.duration_s * self.buckets)))

    # ---- recording hooks -------------------------------------------------

    def on_frame(
        self,
        now: float,
        sampled: bool,
        overflow_layers: int,
        fallback_layers: int,
        clipped_served: int,
        clipped_averted: int,
        clip_energy: float,
        traffic_bits: int,
        wide_traffic_bits: int,
        values: int,
    ) -> None:
        self.frames += 1
        if sampled:
            self.sampled_frames += 1
        if overflow_layers:
            self.overflow_frames += 1
            self.overflow_by_bucket[self.bucket(now)] += 1
        if fallback_layers:
            self.fallback_layer_serves += fallback_layers
            self.fallback_by_bucket[self.bucket(now)] += fallback_layers
        self.clipped_values_served += clipped_served
        self.clipped_values_averted += clipped_averted
        self.clip_energy += clip_energy
        self.traffic_bits += traffic_bits
        self.wide_traffic_bits += wide_traffic_bits
        self.values_total += values
        self.traffic_by_bucket[self.bucket(now)] += traffic_bits

    def on_trip(self, kind: str, count: int = 1) -> None:
        if kind == "overflow":
            self.trips_overflow += count
        elif kind == "slack":
            self.trips_slack += count
        else:
            raise ValueError(f"unknown trip kind {kind!r}")

    def on_swap(self, now: float, recalibrated: bool) -> None:
        self.swaps += 1
        if recalibrated:
            self.recalibrations += 1
        self.swap_by_bucket[self.bucket(now)] += 1

    # ---- derived metrics -------------------------------------------------

    @property
    def clipped_serve_rate(self) -> float:
        """Served-saturated values per value served (the harm SLO)."""
        return self.clipped_values_served / self.values_total if self.values_total else 0.0

    @property
    def traffic_ratio_vs_wide(self) -> float:
        """Served traffic relative to the Raw16 static-wide policy."""
        return self.traffic_bits / self.wide_traffic_bits if self.wide_traffic_bits else 1.0

    @property
    def psnr_db(self) -> float:
        """PSNR proxy of served values vs the unclipped reference.

        Infinite when nothing served clipped — the control loop's target
        operating point (JSON-serialized via the ``Infinity`` sentinel).
        """
        if self.values_total == 0 or self.clip_energy == 0.0:
            return float("inf")
        mse = self.clip_energy / self.values_total
        return 10.0 * math.log10(CALIB_PEAK * CALIB_PEAK / mse)

    def snapshot(self) -> dict:
        """Golden-serializable digest of the calibration run."""
        return {
            "frames": self.frames,
            "sampled_frames": self.sampled_frames,
            "overflow_frames": self.overflow_frames,
            "clipped_values_served": self.clipped_values_served,
            "clipped_values_averted": self.clipped_values_averted,
            "clipped_serve_rate": self.clipped_serve_rate,
            "fallback_layer_serves": self.fallback_layer_serves,
            "trips_overflow": self.trips_overflow,
            "trips_slack": self.trips_slack,
            "swaps": self.swaps,
            "recalibrations": self.recalibrations,
            "psnr_db": self.psnr_db,
            "traffic_bits": self.traffic_bits,
            "wide_traffic_bits": self.wide_traffic_bits,
            "traffic_ratio_vs_wide": self.traffic_ratio_vs_wide,
            "values_total": self.values_total,
            "traffic_by_bucket": self.traffic_by_bucket.tolist(),
            "overflow_by_bucket": self.overflow_by_bucket.tolist(),
            "fallback_by_bucket": self.fallback_by_bucket.tolist(),
            "swap_by_bucket": self.swap_by_bucket.tolist(),
        }
