"""Fig 1: entropy of activations vs adjacent-conditional vs deltas.

The paper reports, per CI-DNN, H(A), H(A|A') and H(Delta) over all input
datasets, finding 1.29x-1.62x compression potential (1.41x/1.40x average).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.entropy import EntropyStats, trace_entropy_stats
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    geomean,
    traces_for,
)
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Fig1Result:
    """Per-network entropy statistics plus the paper's average potentials."""

    stats: tuple[EntropyStats, ...]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("mean_compression_conditional", "mean_compression_delta")

    @property
    def mean_compression_conditional(self) -> float:
        return geomean(s.compression_conditional for s in self.stats)

    @property
    def mean_compression_delta(self) -> float:
        return geomean(s.compression_delta for s in self.stats)


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Fig1Result:
    """Measure Fig 1's entropies over seeded traces of each model."""
    stats = tuple(
        trace_entropy_stats(traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed))
        for model in models
    )
    return Fig1Result(stats=stats)


def compute(profile: Profile | None = None) -> Fig1Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))
