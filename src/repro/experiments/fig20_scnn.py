"""Fig 20: Diffy vs SCNN under weight-sparsity assumptions.

SCNN0/50/75/90 run randomly sparsified model variants; Diffy runs the
original dense models.  SCNN compresses activations off-chip with zero
run-length encoding (its native format), which Fig 14 shows is nearly
ineffective for CI-DNNs — at HD, SCNN becomes memory-bound, which is why
extra weight sparsity gives diminishing returns.  Paper: Diffy is 5.4x,
4.5x, 2.4x and 1.04x faster at 0/50/75/90%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    geomean,
)
from repro.experiments.profiles import Profile, resolve_profile

#: Weight-sparsity sweep of Fig 20.
SCNN_SPARSITIES = (0.0, 0.5, 0.75, 0.9)

#: Paper's average Diffy-over-SCNN speedups for the sweep.
PAPER_FIG20 = {0.0: 5.4, 0.5: 4.5, 0.75: 2.4, 0.9: 1.04}


@dataclass(frozen=True)
class Fig20Result:
    #: {network: {sparsity: Diffy-over-SCNN speedup}}
    speedups: dict[str, dict[float, float]]
    sparsities: tuple[float, ...]

    def mean_speedup(self, sparsity: float) -> float:
        return geomean(v[sparsity] for v in self.speedups.values())


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    sparsities: tuple[float, ...] = SCNN_SPARSITIES,
) -> Fig20Result:
    speedups: dict[str, dict[float, float]] = {}
    for model in models:
        diffy = simulate_network(
            model, "Diffy", scheme="DeltaD16",
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        speedups[model] = {}
        for sparsity in sparsities:
            accel = (
                "SCNN" if sparsity == 0.0 else f"SCNN{int(round(sparsity * 100))}"
            )
            scnn = simulate_network(
                model, accel, scheme="RLEz",
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            speedups[model][sparsity] = diffy.speedup_over(scnn)
    return Fig20Result(speedups=speedups, sparsities=sparsities)


def compute(profile: Profile | None = None) -> Fig20Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig20Result) -> str:
    labels = [f"SCNN{int(s * 100)}" if s else "SCNN0" for s in result.sparsities]
    rows = [
        [model] + [f"{result.speedups[model][s]:.2f}x" for s in result.sparsities]
        for model in result.speedups
    ]
    rows.append(
        ["geomean"] + [f"{result.mean_speedup(s):.2f}x" for s in result.sparsities]
    )
    rows.append(["paper avg"] + [f"{PAPER_FIG20[s]:.2f}x" for s in result.sparsities])
    return format_table(
        ["network"] + labels,
        rows,
        title="Fig 20: Diffy speedup over SCNN per weight-sparsity assumption",
    )
