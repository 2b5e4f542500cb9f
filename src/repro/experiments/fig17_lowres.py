"""Fig 17: absolute frame rates at low resolutions.

The paper runs each model over the sub-HD datasets and finds real-time
(30 FPS) processing for all models except DnCNN above ~0.25 MP, with
DnCNN at 19 FPS for 0.4 MP frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    format_table,
)
from repro.experiments.profiles import Profile, resolve_profile

#: Resolution sweep in megapixels (height, width).
FIG17_RESOLUTIONS: tuple[tuple[int, int], ...] = (
    (240, 320),    # 0.08 MP
    (320, 480),    # 0.15 MP
    (480, 512),    # 0.25 MP
    (512, 768),    # 0.40 MP
    (600, 1024),   # 0.61 MP
)

REAL_TIME_FPS = 30.0

#: The sub-HD frames the resolution sweep traces.
FIG17_DATASET = "Kodak24"


@dataclass(frozen=True)
class Fig17Result:
    #: {network: {(h, w): fps}}
    fps: dict[str, dict[tuple[int, int], float]]
    resolutions: tuple[tuple[int, int], ...]

    def real_time_limit_mp(self, network: str) -> float:
        """Largest swept resolution (MP) still at >= 30 FPS (0 if none)."""
        best = 0.0
        for (h, w), fps in self.fps[network].items():
            if fps >= REAL_TIME_FPS:
                best = max(best, h * w / 1e6)
        return best


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    resolutions: tuple[tuple[int, int], ...] = FIG17_RESOLUTIONS,
    scheme: str = "DeltaD16",
    memory: str = "DDR4-3200",
) -> Fig17Result:
    fps: dict[str, dict[tuple[int, int], float]] = {}
    for model in models:
        fps[model] = {}
        for resolution in resolutions:
            res = simulate_network(
                model, "Diffy", scheme=scheme, memory=memory,
                resolution=resolution, dataset_name=FIG17_DATASET,
                trace_count=trace_count, crop=crop, seed=seed,
            )
            fps[model][resolution] = res.fps
    return Fig17Result(fps=fps, resolutions=resolutions)


def compute(profile: Profile | None = None) -> Fig17Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig17Result) -> str:
    headers = ["network"] + [
        f"{h * w / 1e6:.2f}MP" for (h, w) in result.resolutions
    ] + ["real-time up to"]
    rows = []
    for model, per_res in result.fps.items():
        rows.append(
            [model]
            + [f"{per_res[r]:.1f}" for r in result.resolutions]
            + [f"{result.real_time_limit_mp(model):.2f}MP"]
        )
    return format_table(
        headers, rows,
        title="Fig 17: Diffy FPS at low resolutions (30 FPS = real time)",
    )
