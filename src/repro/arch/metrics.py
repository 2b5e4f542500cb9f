"""Derived metrics and design-space search utilities.

Helpers the evaluation experiments and example scenarios share:

- :func:`utilization_report` — Fig 12-style per-layer breakdown rows,
- :func:`minimum_tiles_for_fps` — the Fig 18 search (smallest scaled
  configuration meeting a frame-rate target),
- :func:`max_realtime_megapixels` — the Fig 17 question inverted: the
  largest resolution a configuration sustains at a target frame rate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.config import DIFFY_CONFIG, AcceleratorConfig
from repro.arch.memory import MemorySystem, memory_system
from repro.arch.sim import NetworkResult, simulate_network
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class UtilizationRow:
    """One layer's time-fraction breakdown (Fig 12's three colours)."""

    layer: str
    useful: float
    idle: float
    stall: float
    time_share: float


def utilization_report(result: NetworkResult) -> list[UtilizationRow]:
    """Per-layer useful/idle/stall fractions plus each layer's time share."""
    total = result.total_time_s
    if total <= 0:
        raise ValueError("result has no execution time")
    return [
        UtilizationRow(
            layer=layer.name,
            useful=layer.useful_fraction,
            idle=layer.idle_fraction,
            stall=layer.stall_fraction,
            time_share=layer.time_s / total,
        )
        for layer in result.layers
    ]


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
    base_config: AcceleratorConfig = DIFFY_CONFIG,
    resolution: tuple[int, int] = (1080, 1920),
    dataset_name: str = "HD33",
    trace_count: int = 1,
    crop: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> Optional[ScalingChoice]:
    """Smallest hybrid-partitioned configuration sustaining ``target_fps``.

    Returns None when no swept point reaches the target.  Tiles are tried
    smallest-first, then memories cheapest-first, mirroring Fig 18's axes.
    """
    check_positive("target_fps", target_fps)
    for tiles in tile_sweep:
        config = dataclasses.replace(
            base_config.with_tiles(tiles), partition="hybrid"
        )
        ideal = simulate_network(
            model, "Diffy", scheme=scheme, memory="Ideal", config=config,
            resolution=resolution, dataset_name=dataset_name,
            trace_count=trace_count, crop=crop, seed=seed,
        )
        if ideal.fps < target_fps:
            continue
        for tech, channels in memory_sweep:
            res = simulate_network(
                model, "Diffy", scheme=scheme,
                memory=memory_system(tech, channels), config=config,
                resolution=resolution, dataset_name=dataset_name,
                trace_count=trace_count, crop=crop, seed=seed,
            )
            if res.fps >= target_fps:
                return ScalingChoice(
                    tiles=tiles, memory=tech, channels=channels, fps=res.fps
                )
    return None


def max_realtime_megapixels(
    model: str,
    target_fps: float = 30.0,
    scheme: str = "DeltaD16",
    memory: str | MemorySystem = "DDR4-3200",
    aspect: tuple[int, int] = (3, 4),
    trace_count: int = 1,
    seed: int = DEFAULT_SEED,
    tolerance_px: int = 32,
) -> float:
    """Largest resolution (in megapixels) sustained at ``target_fps``.

    Bisects the frame height at the given aspect ratio.  Execution time is
    monotone in resolution under the analytical scaling model, so the
    bisection is exact up to ``tolerance_px`` of height.
    """
    check_positive("target_fps", target_fps)

    def fps_at(height: int) -> float:
        width = height * aspect[1] // aspect[0]
        res = simulate_network(
            model, "Diffy", scheme=scheme, memory=memory,
            resolution=(height, width), trace_count=trace_count, seed=seed,
        )
        return res.fps

    lo, hi = 64, 2160
    if fps_at(lo) < target_fps:
        return 0.0
    if fps_at(hi) >= target_fps:
        lo = hi
    while hi - lo > tolerance_px:
        mid = (lo + hi) // 2
        if fps_at(mid) >= target_fps:
            lo = mid
        else:
            hi = mid
    width = lo * aspect[1] // aspect[0]
    return lo * width / 1e6
