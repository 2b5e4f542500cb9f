"""Chaos-specific telemetry: corruption SLOs, crash effects, recovery.

Kept separate from :class:`repro.serve.telemetry.ServeTelemetry` on
purpose: the fault-free serving counters (and the goldens pinned on
them) stay byte-identical whether or not the chaos layer is compiled
into a run, and chaos runs get the reliability-specific counters a
postmortem actually asks for:

- the detected-vs-silent corruption split per warm state read,
- what each crash cost (queued requests shed, in-flight batches killed,
  sessions whose temporal state was lost),
- a recovery-time histogram — crash or detected-corruption invalidation
  to the session's next warm serve,
- fixed time-bucket series of warm/cold/re-anchor serves, which is what
  makes a crash visible as a re-anchor spike followed by warm-fraction
  recovery.

Merging is exact and pinned to ascending node-id order by the fleet
layer, so chaos reports are byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.telemetry import latency_histogram
from repro.utils.timing import FieldMerge, StreamingHistogram
from repro.utils.validation import check_positive

__all__ = ["ChaosTelemetry", "DEFAULT_BUCKETS"]

#: Time buckets of the warm/cold/re-anchor series.
DEFAULT_BUCKETS = 24


@dataclass
class ChaosTelemetry(FieldMerge):
    """All chaos counters and distributions of one run (or one node)."""

    __merge_window__ = ("duration_s", "buckets")

    duration_s: float
    buckets: int = DEFAULT_BUCKETS
    #: Warm-eligible serves that consulted stored temporal state.
    warm_attempts: int = 0
    storage_clean: int = 0
    storage_corrected: int = 0
    #: Reads the ladder flagged: the session re-anchors (pays cold).
    storage_detected: int = 0
    #: Wrong state served with no flag raised — the SLO violation count.
    storage_silent: int = 0
    crashes: int = 0
    #: Queued (admitted, undispatched) requests lost to crashes.
    crash_shed: int = 0
    #: In-flight requests whose batch died with the node.
    killed_in_flight: int = 0
    #: Resident sessions whose temporal state a crash wiped.
    sessions_lost: int = 0
    #: Invalidated sessions that reached a warm serve again.
    sessions_recovered: int = 0
    #: Invalidation (crash or detected fault) to next warm serve.
    recovery: StreamingHistogram = field(default_factory=latency_histogram)
    warm_by_bucket: np.ndarray = field(init=False)
    cold_by_bucket: np.ndarray = field(init=False)
    reanchor_by_bucket: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        check_positive("buckets", self.buckets)
        self.warm_by_bucket = np.zeros(self.buckets, dtype=np.int64)
        self.cold_by_bucket = np.zeros(self.buckets, dtype=np.int64)
        self.reanchor_by_bucket = np.zeros(self.buckets, dtype=np.int64)

    # ---- recording hooks -------------------------------------------------

    def on_storage(self, outcome: str) -> None:
        self.warm_attempts += 1
        if outcome == "clean":
            self.storage_clean += 1
        elif outcome == "corrected":
            self.storage_corrected += 1
        elif outcome == "detected":
            self.storage_detected += 1
        elif outcome == "silent":
            self.storage_silent += 1
        else:
            raise ValueError(f"unknown storage outcome {outcome!r}")

    def record_serves(self, at_s, warm, reanchor) -> None:
        """Bucket one run's served requests, once: serve time, warm flag,
        and whether a cold serve re-anchored a resident session.

        A serve at time ``t`` lands in bucket
        ``min(buckets - 1, max(0, int(t / duration_s * buckets)))`` (tail
        work clamps into the last), computed elementwise with the same
        float expression, truncation and clamp.
        """
        at_s = np.asarray(at_s, dtype=np.float64)
        warm = np.asarray(warm, dtype=bool)
        cold = ~warm
        pos = np.trunc(at_s / self.duration_s * self.buckets)
        b = np.clip(pos, 0, self.buckets - 1).astype(np.int64)
        self.warm_by_bucket += np.bincount(b[warm], minlength=self.buckets)
        self.cold_by_bucket += np.bincount(b[cold], minlength=self.buckets)
        self.reanchor_by_bucket += np.bincount(
            b[cold & np.asarray(reanchor, dtype=bool)], minlength=self.buckets
        )

    def on_crash(self, shed: int, killed: int, lost: int) -> None:
        self.crashes += 1
        self.crash_shed += shed
        self.killed_in_flight += killed
        self.sessions_lost += lost

    def on_recovery(self, elapsed_s: float) -> None:
        self.sessions_recovered += 1
        self.recovery.record(elapsed_s)

    # ---- aggregation -----------------------------------------------------

    @property
    def silent_rate(self) -> float:
        """Silent corruptions per warm state read (the SLO)."""
        return self.storage_silent / self.warm_attempts if self.warm_attempts else 0.0

    def snapshot(self) -> dict:
        """Golden-serializable digest of the chaos run."""
        rec = self.recovery.summary()
        return {
            "warm_attempts": self.warm_attempts,
            "storage_clean": self.storage_clean,
            "storage_corrected": self.storage_corrected,
            "storage_detected": self.storage_detected,
            "storage_silent": self.storage_silent,
            "silent_rate": self.silent_rate,
            "crashes": self.crashes,
            "crash_shed": self.crash_shed,
            "killed_in_flight": self.killed_in_flight,
            "sessions_lost": self.sessions_lost,
            "sessions_recovered": self.sessions_recovered,
            "recovery_ms": {
                "count": rec["count"],
                # 0.0, not NaN, when nothing recovered: goldens are JSON.
                "p50": rec["p50"] * 1e3 if rec["count"] else 0.0,
                "p99": rec["p99"] * 1e3 if rec["count"] else 0.0,
            },
            "warm_by_bucket": self.warm_by_bucket.tolist(),
            "cold_by_bucket": self.cold_by_bucket.tolist(),
            "reanchor_by_bucket": self.reanchor_by_bucket.tolist(),
        }
