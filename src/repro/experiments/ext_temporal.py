"""Extension experiment: combining Diffy with temporal (CBInfer-style) deltas.

Section V of the paper positions CBInfer (temporal deltas across video
frames) as complementary to Diffy (spatial deltas within a frame) and
suggests the concepts "could potentially be combined".  This experiment
quantifies that combination on synthetic video:

- per-layer effectual terms under raw / spatial / temporal processing and
  a per-layer best-mode selection (free in hardware via the DR
  multiplexer),
- sensitivity to scene motion: temporal wins on static scenes, spatial
  wins as panning grows,
- the frame-buffer storage a temporal mode costs (CBInfer's overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.temporal import FrameSequenceTrace
from repro.data.video import synthesize_clip
from repro.experiments.common import geomean
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.inputs import adapt_input
from repro.models.registry import get_model_spec, prepare_model


@dataclass(frozen=True)
class TemporalResult:
    """Mode comparison for one model at one motion level."""

    model: str
    pan_px: int
    #: Mean terms/value per mode across layers (value-weighted geomean).
    raw_terms: float
    spatial_terms: float
    temporal_terms: float
    combined_terms: float
    #: Layers per winning mode.
    mode_counts: dict[str, int]
    frame_buffer_kb: float

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = (
        "spatial_speedup",
        "temporal_speedup",
        "combined_speedup",
    )

    @property
    def spatial_speedup(self) -> float:
        return self.raw_terms / self.spatial_terms

    @property
    def temporal_speedup(self) -> float:
        return self.raw_terms / self.temporal_terms

    @property
    def combined_speedup(self) -> float:
        return self.raw_terms / self.combined_terms


#: Clip length: modes are compared on the last frame, which has two
#: predecessors.
FRAMES = 3


def run_one(
    *,
    model: str,
    crop: int,
    seed: int,
    pan_px: int,
) -> TemporalResult:
    """Trace a clip and compare processing modes for one motion level."""
    spec = get_model_spec(model)
    net = prepare_model(model, seed)
    clip = synthesize_clip(FRAMES, crop, crop, pan_px=pan_px, seed=seed)
    traces = tuple(net.trace(adapt_input(spec.input_adapter, f)) for f in clip)
    seq = FrameSequenceTrace(traces)
    stats = seq.layer_mode_stats(frame=FRAMES - 1)
    counts: dict[str, int] = {"raw": 0, "spatial": 0, "temporal": 0}
    for s in stats:
        counts[s.best_mode] += 1
    floor = 1e-6
    return TemporalResult(
        model=model,
        pan_px=pan_px,
        raw_terms=geomean(max(s.raw_terms, floor) for s in stats),
        spatial_terms=geomean(max(s.spatial_terms, floor) for s in stats),
        temporal_terms=geomean(max(s.temporal_terms, floor) for s in stats),
        combined_terms=geomean(max(s.combined_terms, floor) for s in stats),
        mode_counts=counts,
        frame_buffer_kb=seq.frame_buffer_bytes() / 1024,
    )


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    pans: tuple[int, ...] = (0, 1, 2, 4, 8),
) -> list[TemporalResult]:
    """Sweep scene motion; temporal-vs-spatial crossover is the story."""
    return [run_one(model=model, crop=crop, seed=seed, pan_px=pan) for pan in pans]


def compute(profile: Profile | None = None) -> list[TemporalResult]:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).one_model_kwargs(64))
