"""Shadow counters and the recalibration reservoir.

The serve path cannot afford to re-profile every frame, but it must
never *miss* an overflow.  The split here mirrors that asymmetry:

- **Overflow watch** runs on every frame.  It is cheap — one
  ``searchsorted`` per layer against the compressed magnitude statistics
  (:class:`repro.calib.stats.LayerStats`) at the frame's drift gain.
- **Slack profiling** runs only on a deterministic sampled fraction of
  frames (the *shadow* fraction): the full required-width measurement
  that detects stale over-wide precisions, plus admission of the frame's
  input statistics into a bounded reservoir the recalibrator later
  re-profiles from.

Sampling is decided by hashing ``(session_id, frame_index)`` through
:func:`repro.utils.rng.derive_seed` — a pure function of the frame's
identity, independent of arrival order or which fleet node serves the
session, so every golden stays byte-identical across shard layouts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.utils.rng import DEFAULT_SEED, derive_seed
from repro.utils.validation import check_positive

__all__ = ["FrameSample", "Reservoir", "ShadowCounters"]


@dataclass(frozen=True)
class FrameSample:
    """Input statistics of one sampled frame, as seen at serve time.

    Under the gain-drift model an input frame's layer statistics are the
    profiled :class:`~repro.calib.stats.LayerStats` of its scene profile
    evaluated at its drift gain — so a sample is fully described by
    ``(arrival_s, profile, gain)`` and weighs nothing to retain.
    """

    arrival_s: float
    profile: str
    gain: float


class Reservoir:
    """Bounded FIFO of recent sampled frames (the recalibration corpus).

    A true reservoir sampler would keep a uniform draw over all history;
    for drift tracking, *recency* is the point — the recalibrator must
    converge to the current input distribution, not the all-time mix —
    so this is a sliding window: admit every sampled frame, evict the
    oldest past ``capacity``.
    """

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self._frames: "deque[FrameSample]" = deque(maxlen=capacity)
        self.admitted = 0

    def __len__(self) -> int:
        return len(self._frames)

    def add(self, sample: FrameSample) -> None:
        self._frames.append(sample)
        self.admitted += 1

    def samples(self) -> "tuple[FrameSample, ...]":
        """Current contents, oldest first."""
        return tuple(self._frames)

    def clear(self) -> None:
        self._frames.clear()


class ShadowCounters:
    """Deterministic frame sampler feeding the drift detector.

    One in ``sample_period`` frames is *shadowed* (slack-profiled and
    admitted to the reservoir); overflow is the caller's every-frame
    responsibility.  The sampling decision hashes the frame identity, so
    it commutes with any partitioning of the request stream.
    """

    def __init__(
        self,
        sample_period: int = 4,
        reservoir_capacity: int = 64,
        seed: int = DEFAULT_SEED,
    ) -> None:
        check_positive("sample_period", sample_period)
        self.sample_period = sample_period
        self.seed = seed
        self.reservoir = Reservoir(reservoir_capacity)
        self.frames = 0
        self.sampled = 0

    def is_sampled(self, session_id: int, frame_index: int) -> bool:
        """Pure membership test — no internal state consulted."""
        if self.sample_period == 1:
            return True
        return derive_seed(self.seed, "shadow", session_id, frame_index) % self.sample_period == 0

    def observe(
        self, session_id: int, frame_index: int, arrival_s: float, profile: str, gain: float
    ) -> bool:
        """Record one served frame; returns whether it was shadowed."""
        self.frames += 1
        if not self.is_sampled(session_id, frame_index):
            return False
        self.sampled += 1
        self.reservoir.add(FrameSample(arrival_s=arrival_s, profile=profile, gain=gain))
        return True
