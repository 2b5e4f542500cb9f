"""Fig 13: absolute HD frame rates for VAA, PRA and Diffy.

The paper (4 tiles, DDR4-3200, DeltaD16): VAA 0.7-3.9 FPS, PRA 2.6-18.9,
Diffy 3.9-28.5, with +/-7.5% (PRA) and +/-15% (Diffy) content variance;
only JointNet approaches real-time 30 FPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
)
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Fig13Row:
    network: str
    vaa_fps: float
    pra_fps: float
    diffy_fps: float
    diffy_fps_std: float


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    scheme: str = "DeltaD16",
    memory: str = "DDR4-3200",
) -> list[Fig13Row]:
    rows = []
    for model in models:
        vaa = simulate_network(
            model, "VAA", scheme="NoCompression", memory=memory,
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        pra = simulate_network(
            model, "PRA", scheme=scheme, memory=memory,
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        diffy = simulate_network(
            model, "Diffy", scheme=scheme, memory=memory,
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        # Content variance: per-image FPS across single-trace runs.
        per_image = [
            simulate_network(
                model, "Diffy", scheme=scheme, memory=memory,
                dataset_name=DEFAULT_DATASET, trace_count=1, crop=crop, seed=seed + i,
            ).fps
            for i in range(2)
        ]
        rows.append(
            Fig13Row(
                network=model,
                vaa_fps=vaa.fps,
                pra_fps=pra.fps,
                diffy_fps=diffy.fps,
                diffy_fps_std=float(np.std(per_image + [diffy.fps])),
            )
        )
    return rows


def compute(profile: Profile | None = None) -> list[Fig13Row]:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(rows: list[Fig13Row]) -> str:
    table_rows = [
        (
            r.network,
            f"{r.vaa_fps:.2f}",
            f"{r.pra_fps:.2f}",
            f"{r.diffy_fps:.2f} +/- {r.diffy_fps_std:.2f}",
        )
        for r in rows
    ]
    return format_table(
        ["network", "VAA FPS", "PRA FPS", "Diffy FPS"],
        table_rows,
        title="Fig 13: HD (1920x1080) frame rates (paper: VAA 0.7-3.9, PRA 2.6-18.9, Diffy 3.9-28.5)",
    )
