"""Fig 18: minimum configuration for real-time (30 FPS) HD processing.

For each model and compression scheme, search the smallest tile count and
cheapest memory system that sustain 30 FPS at HD.  Scaled configurations
use the hybrid partition (tiles beyond the filter-group count split output
rows).  The paper: DnCNN is the most demanding (32 tiles + HBM2 under
DeltaD16); VDSR needs 16 tiles but only dual-channel LPDDR3E-2133 thanks
to its sparsity; FFDNet/JointNet need 8 tiles with dual-channel
LPDDR3-1600; IRCNN 12 tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.metrics import ScalingChoice, minimum_tiles_for_fps
from repro.experiments.common import CI_MODEL_NAMES
from repro.experiments.profiles import Profile, resolve_profile

#: Tile counts to consider, smallest first.
TILE_SWEEP = (4, 8, 12, 16, 24, 32, 48, 64)

#: Memory configurations (technology, channels), cheapest first — the
#: paper's v-r-x axis.
MEMORY_SWEEP: tuple[tuple[str, int], ...] = (
    ("LPDDR3-1600", 1),
    ("LPDDR3-1600", 2),
    ("LPDDR3E-2133", 2),
    ("LPDDR4-3200", 2),
    ("LPDDR4X-3733", 2),
    ("LPDDR4X-4267", 2),
    ("HBM2", 1),
    ("HBM3", 1),
)

FIG18_SCHEMES = ("NoCompression", "Profiled", "DeltaD16")

TARGET_FPS = 30.0


@dataclass(frozen=True)
class Fig18Result:
    #: {network: {scheme: minimal config or None}}
    grid: dict[str, dict[str, Optional[ScalingChoice]]]


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Fig18Result:
    grid: dict[str, dict[str, Optional[ScalingChoice]]] = {}
    for model in models:
        grid[model] = {
            scheme: minimum_tiles_for_fps(
                model, TARGET_FPS, scheme=scheme,
                tile_sweep=TILE_SWEEP, memory_sweep=MEMORY_SWEEP,
                trace_count=trace_count, crop=crop, seed=seed,
            )
            for scheme in FIG18_SCHEMES
        }
    return Fig18Result(grid=grid)


def compute(profile: Profile | None = None) -> Fig18Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))
