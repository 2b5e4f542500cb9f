"""Fig 16: sensitivity to the tile configuration T_x.

``T_x`` processes x weight-activation terms concurrently per filter.  The
paper: at T_1 (one term per filter per cycle, for both VAA and Diffy)
cross-lane synchronization vanishes and Diffy's mean speedup grows from
7.1x (T_16) to 11.9x, closing most of the gap to the Fig 4 potential —
except for VDSR, whose extreme sparsity still leaves imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import DIFFY_CONFIG, VAA_CONFIG
from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    geomean,
)
from repro.experiments.profiles import Profile, resolve_profile

#: T_x sweep of Fig 16.
FIG16_TERMS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class Fig16Result:
    #: {network: {T_x: Diffy-over-VAA speedup}}
    speedups: dict[str, dict[int, float]]
    terms: tuple[int, ...]

    def mean_speedup(self, t: int) -> float:
        return geomean(v[t] for v in self.speedups.values())


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    terms: tuple[int, ...] = FIG16_TERMS,
) -> Fig16Result:
    speedups: dict[str, dict[int, float]] = {}
    for model in models:
        speedups[model] = {}
        for t in terms:
            vaa = simulate_network(
                model, "VAA", scheme="NoCompression", memory="Ideal",
                config=VAA_CONFIG.with_terms(t),
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            diffy = simulate_network(
                model, "Diffy", scheme="DeltaD16", memory="Ideal",
                config=DIFFY_CONFIG.with_terms(t),
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            speedups[model][t] = diffy.speedup_over(vaa)
    return Fig16Result(speedups=speedups, terms=terms)


def compute(profile: Profile | None = None) -> Fig16Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig16Result) -> str:
    rows = [
        [model] + [f"{result.speedups[model][t]:.2f}x" for t in result.terms]
        for model in result.speedups
    ]
    rows.append(["geomean"] + [f"{result.mean_speedup(t):.2f}x" for t in result.terms])
    return format_table(
        ["network"] + [f"T_{t}" for t in result.terms],
        rows,
        title="Fig 16: Diffy speedup over an equally-configured VAA per tiling",
    )
