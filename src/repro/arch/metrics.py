"""Design-space search: :func:`minimum_tiles_for_fps`, the Fig 18 search
for the smallest scaled configuration meeting a frame-rate target."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.config import DIFFY_CONFIG
from repro.arch.memory import memory_system
from repro.arch.sim import simulate_network
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ScalingChoice:
    """A (tiles, memory) point meeting a frame-rate target."""

    tiles: int
    memory: str
    channels: int
    fps: float


def minimum_tiles_for_fps(
    model: str,
    target_fps: float,
    scheme: str = "DeltaD16",
    tile_sweep: Sequence[int] = (4, 8, 12, 16, 24, 32, 48, 64),
    memory_sweep: Sequence[tuple[str, int]] = (
        ("LPDDR4-3200", 2),
        ("HBM2", 1),
        ("HBM3", 1),
    ),
    trace_count: int = 1,
    crop: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> Optional[ScalingChoice]:
    """Smallest hybrid-partitioned Diffy configuration sustaining ``target_fps``
    at HD.

    Traces come from :func:`simulate_network`'s default dataset.  Returns
    None when no swept point reaches the target.  Tiles are tried
    smallest-first, then memories cheapest-first, mirroring Fig 18's axes.
    """
    check_positive("target_fps", target_fps)
    for tiles in tile_sweep:
        config = dataclasses.replace(
            DIFFY_CONFIG.with_tiles(tiles), partition="hybrid"
        )
        ideal = simulate_network(
            model, "Diffy", scheme=scheme, memory="Ideal", config=config,
            trace_count=trace_count, crop=crop, seed=seed,
        )
        if ideal.fps < target_fps:
            continue
        for tech, channels in memory_sweep:
            res = simulate_network(
                model, "Diffy", scheme=scheme,
                memory=memory_system(tech, channels), config=config,
                trace_count=trace_count, crop=crop, seed=seed,
            )
            if res.fps >= target_fps:
                return ScalingChoice(
                    tiles=tiles, memory=tech, channels=channels, fps=res.fps
                )
    return None

