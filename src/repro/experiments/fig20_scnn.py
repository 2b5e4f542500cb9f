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
from repro.experiments.common import CI_MODEL_NAMES, DEFAULT_DATASET, geomean
from repro.experiments.profiles import Profile, resolve_profile

#: Weight-sparsity sweep of Fig 20.
SCNN_SPARSITIES = (0.0, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class Fig20Result:
    #: {network: {sparsity: Diffy-over-SCNN speedup}}
    speedups: dict[str, dict[float, float]]
    sparsities: tuple[float, ...]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("mean_speedup",)

    @property
    def mean_speedup(self) -> dict[float, float]:
        """{sparsity: geomean Diffy-over-SCNN speedup over the networks}."""
        return {s: geomean(v[s] for v in self.speedups.values()) for s in self.sparsities}


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
