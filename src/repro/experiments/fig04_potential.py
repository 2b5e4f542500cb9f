"""Fig 4: potential speedups of RawE and DeltaE over processing ALL terms.

Pure value-statistics potentials (perfect utilization, no sync); the cycle
models of Figs 11/13 then erode them — "benefits are proportional to but
lower than the potential".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.potential import PotentialSpeedups, potential_speedups
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    geomean,
    traces_for,
)
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Fig4Result:
    potentials: tuple[PotentialSpeedups, ...]

    @property
    def mean_raw(self) -> float:
        return geomean(p.raw_effectual for p in self.potentials)

    @property
    def mean_delta(self) -> float:
        return geomean(p.delta_effectual for p in self.potentials)


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    dataset: str = DEFAULT_DATASET,
) -> Fig4Result:
    return Fig4Result(
        potentials=tuple(
            potential_speedups(traces_for(model, dataset, trace_count, crop, seed=seed))
            for model in models
        )
    )


def compute(profile: Profile | None = None) -> Fig4Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig4Result) -> str:
    rows = [
        (
            p.network,
            f"{p.raw_effectual:.2f}x",
            f"{p.delta_effectual:.2f}x",
            f"{p.delta_over_raw:.2f}x",
        )
        for p in result.potentials
    ]
    rows.append(
        ("average", f"{result.mean_raw:.2f}x", f"{result.mean_delta:.2f}x",
         f"{result.mean_delta / result.mean_raw:.2f}x")
    )
    return format_table(
        ["network", "RawE / ALL", "DeltaE / ALL", "DeltaE / RawE"],
        rows,
        title="Fig 4: potential work-reduction speedups",
    )
