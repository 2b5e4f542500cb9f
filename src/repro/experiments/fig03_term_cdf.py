"""Fig 3: cumulative distribution of effectual terms per activation/delta.

Measured over all CI-DNNs and datasets; the paper reports 43% raw / 48%
delta sparsity and a delta CDF that dominates the raw CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.terms import TermStats, trace_term_stats
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    traces_for,
)
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Fig3Result:
    stats: TermStats
    models: tuple[str, ...]


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Fig3Result:
    """Accumulate term histograms over every model's traces."""
    traces = []
    for model in models:
        traces.extend(traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed))
    return Fig3Result(stats=trace_term_stats(traces), models=models)


def compute(profile: Profile | None = None) -> Fig3Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig3Result) -> str:
    stats = result.stats
    rows = []
    for n in range(len(stats.hist_raw)):
        rows.append(
            (
                n,
                f"{stats.cdf_raw[n] * 100:.1f}%",
                f"{stats.cdf_delta[n] * 100:.1f}%",
            )
        )
    table = format_table(
        ["<= terms", "raw activations", "deltas"],
        rows,
        title="Fig 3: cumulative distribution of effectual terms",
    )
    summary = (
        f"\nsparsity: raw={stats.sparsity_raw * 100:.1f}% (paper 43%), "
        f"delta={stats.sparsity_delta * 100:.1f}% (paper 48%)\n"
        f"mean terms: raw={stats.mean_terms_raw:.2f}, "
        f"delta={stats.mean_terms_delta:.2f}"
    )
    return table + summary
