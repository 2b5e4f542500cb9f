"""Compressed per-layer magnitude statistics for online calibration.

The control loop must answer, per layer and per served frame, "how many
values would clip at width ``w`` if the input gain had drifted to
``g``?" — without re-tracing the network in the serve path.  Two facts
make that cheap:

1. **Positive homogeneity.**  For the post-ReLU networks priced here,
   scaling the input brightness/contrast by ``g > 0`` scales every
   layer's activation magnitudes by ``g`` (``relu(g*x) = g*relu(x)``),
   so one scalar gain models a brightness ramp through the whole
   network.
2. **Low magnitude entropy.**  A layer's imap holds few distinct
   magnitudes relative to its size, so the full magnitude distribution
   compresses to a sorted unique-value/count pair a ``searchsorted``
   answers threshold questions against exactly.

:func:`collect_calib_stats` profiles one model over the scene
distributions of :data:`repro.data.synthesis.PROFILES` (disk-cached;
this is the offline pass Table III's profiled precisions come from) and
the resulting :class:`LayerStats` answer the serve-path questions in
microseconds.  All counts are exact integers over the profiling sample
(``frames`` frames), which keeps every downstream golden
byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache import store as cache_store
from repro.core.precision import MAX_PRECISION, group_maxima
from repro.data.video import synthesize_clip
from repro.models.inputs import adapt_input
from repro.models.registry import get_model_spec, prepare_model
from repro.utils import timing
from repro.utils.bits import bits_for_magnitude
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_positive

__all__ = ["LayerStats", "CalibStats", "collect_calib_stats", "DEFAULT_CALIB_PROFILES"]

#: Scene distributions of the default profiling set — the paper's
#: "nature, city and texture scenes" reading of HD33, with the noisy
#: capture profile standing in for RNI15.
DEFAULT_CALIB_PROFILES: "tuple[str, ...]" = ("nature", "city", "noisy")


def _drifted(mags: np.ndarray, gain: float) -> np.ndarray:
    """Magnitudes after the gain drift, rounded half away from zero."""
    if gain == 1.0:
        return mags
    return np.floor(mags.astype(np.float64) * gain + 0.5).astype(np.int64)


def _width_cap(width: int, signed: bool) -> int:
    """Largest storable magnitude at ``width`` bits."""
    return (1 << (width - 1 if signed else width)) - 1


@dataclass(frozen=True)
class LayerStats:
    """One layer's magnitude distribution under one scene profile.

    Counts are totals over the profiling sample of ``frames`` frames;
    per-frame rates divide by ``frames`` (``sample_values`` is the
    per-frame value count times ``frames``).  ``value_mags`` /
    ``value_counts`` are the sorted unique magnitudes and their counts;
    ``group_mags`` / ``group_counts`` the same for per-16-value group
    maxima (the Dynamic Stripes group geometry).
    """

    name: str
    index: int
    signed: bool
    frames: int
    n_values: int
    n_groups: int
    max_mag: int
    value_mags: np.ndarray
    value_counts: np.ndarray
    group_mags: np.ndarray
    group_counts: np.ndarray

    @property
    def sample_values(self) -> int:
        return self.n_values * self.frames

    @property
    def sample_groups(self) -> int:
        return self.n_groups * self.frames

    def required_width(self, gain: float = 1.0) -> int:
        """Smallest safe storage width at drift gain ``gain``.

        The width a fresh profiling pass over this sample would pick:
        every drifted magnitude fits, so serving at this width clips
        nothing.  Clamped to [1, :data:`MAX_PRECISION`].
        """
        mag = int(_drifted(np.asarray([self.max_mag], dtype=np.int64), gain)[0])
        bits = int(bits_for_magnitude(np.asarray([mag], dtype=np.int64))[0])
        bits += 1 if self.signed else 0
        return int(min(max(bits, 1), MAX_PRECISION))

    def _over_threshold(
        self, mags: np.ndarray, counts: np.ndarray, width: int, gain: float
    ) -> "tuple[np.ndarray, np.ndarray, int]":
        """Drifted magnitudes above the width cap, their counts, the cap."""
        cap = _width_cap(width, self.signed)
        drifted = _drifted(mags, gain)
        idx = int(np.searchsorted(drifted, cap, side="right"))
        return drifted[idx:], counts[idx:], cap

    def clipped_values(self, width: int, gain: float = 1.0) -> int:
        """Values (over the sample) that saturate at ``width`` bits.

        Width :data:`MAX_PRECISION` is the hardware word: by definition
        nothing the datapath can represent clips there (the Raw16 safe
        fallback), so the count is 0.
        """
        if width >= MAX_PRECISION:
            return 0
        _, counts, _ = self._over_threshold(self.value_mags, self.value_counts, width, gain)
        return int(counts.sum())

    def clip_energy(self, width: int, gain: float = 1.0) -> float:
        """Sum of squared clip errors over the sample (PSNR numerator)."""
        if width >= MAX_PRECISION:
            return 0.0
        over, counts, cap = self._over_threshold(
            self.value_mags, self.value_counts, width, gain
        )
        if not len(over):
            return 0.0
        err = (over - cap).astype(np.float64)
        return float((err * err * counts).sum())

    def overflow_groups(self, width: int, gain: float = 1.0) -> int:
        """16-value groups (over the sample) whose max needs > ``width`` bits."""
        if width >= MAX_PRECISION:
            return 0
        _, counts, _ = self._over_threshold(self.group_mags, self.group_counts, width, gain)
        return int(counts.sum())

    def slack_bits(self, width: int, gain: float = 1.0) -> int:
        """Unused top bits when serving this distribution at ``width``."""
        return width - self.required_width(gain)


def _unique_counts(mags: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    values, counts = np.unique(mags, return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)


def _layer_stats(name: str, index: int, imaps: "list[np.ndarray]") -> LayerStats:
    flats = [np.asarray(m, dtype=np.int64).reshape(-1) for m in imaps]
    signed = any(int(f.min()) < 0 for f in flats if f.size)
    abs_flats = [np.abs(f) for f in flats]
    mags = np.concatenate(abs_flats)
    group_maxes = [group_maxima(a, 16) for a in abs_flats]
    groups = np.concatenate(group_maxes)
    value_mags, value_counts = _unique_counts(mags)
    group_mags, group_counts = _unique_counts(groups)
    return LayerStats(
        name=name,
        index=index,
        signed=signed,
        frames=len(flats),
        n_values=flats[0].size,
        n_groups=len(group_maxes[0]),
        max_mag=int(mags.max()) if mags.size else 0,
        value_mags=value_mags,
        value_counts=value_counts,
        group_mags=group_mags,
        group_counts=group_counts,
    )


@dataclass(frozen=True)
class CalibStats:
    """One model's profiling-pass statistics across scene distributions."""

    model: str
    crop: int
    frames: int
    seed: int
    profiles: "tuple[str, ...]"
    #: profile name -> per-layer stats (Table III layer order).
    per_profile: "dict[str, tuple[LayerStats, ...]]"

    @property
    def n_layers(self) -> int:
        return len(self.per_profile[self.profiles[0]])

    def layers(self, profile: str) -> "tuple[LayerStats, ...]":
        try:
            return self.per_profile[profile]
        except KeyError:
            raise ValueError(
                f"profile {profile!r} was not in the profiling set {self.profiles}"
            ) from None

    def profiled_widths(self) -> "tuple[int, ...]":
        """The offline table: per-layer widths covering the whole
        profiling set at gain 1.0 (the Table III criterion)."""
        return tuple(
            max(self.per_profile[p][i].required_width(1.0) for p in self.profiles)
            for i in range(self.n_layers)
        )


def collect_calib_stats(
    model: str,
    profiles: "tuple[str, ...]" = DEFAULT_CALIB_PROFILES,
    crop: int = 48,
    frames: int = 2,
    seed: int = DEFAULT_SEED,
) -> CalibStats:
    """Profile one model's per-layer magnitude statistics (disk-cached).

    For each scene profile a seeded clip is traced through the quantized
    network and every layer's imap magnitudes are compressed into
    :class:`LayerStats`.  Pure function of its arguments — the offline
    profiling pass the online loop later re-runs in miniature from its
    reservoir.
    """
    check_positive("frames", frames)
    if not profiles:
        raise ValueError("need at least one profiling scene profile")
    return cache_store.fetch_or_compute(
        "calib_stats",
        (model, tuple(profiles), crop, frames, seed),
        lambda: _collect(model, tuple(profiles), crop, frames, seed),
    )


def _collect(
    model: str, profiles: "tuple[str, ...]", crop: int, frames: int, seed: int
) -> CalibStats:
    spec = get_model_spec(model)
    net = prepare_model(model, seed)
    per_profile: "dict[str, tuple[LayerStats, ...]]" = {}
    with timing.timed("calib.collect_stats"):
        for profile in profiles:
            clip = synthesize_clip(frames, crop, crop, profile=profile, seed=seed)
            traces = [net.trace(adapt_input(spec.input_adapter, f)) for f in clip]
            n_layers = len(traces[0])
            per_profile[profile] = tuple(
                _layer_stats(
                    traces[0][i].name,
                    traces[0][i].index,
                    [t[i].imap for t in traces],
                )
                for i in range(n_layers)
            )
    return CalibStats(
        model=model,
        crop=crop,
        frames=frames,
        seed=seed,
        profiles=profiles,
        per_profile=per_profile,
    )
