"""Table III: profile-derived per-layer activation precisions.

The paper profiles each network over its datasets and reports per-layer
precisions of 7-14 bits.  We run the same profiling pass on our traces.
(Absolute values depend on the synthetic weight scales; what must
reproduce is the band — every layer well below the 16-bit word — and the
resulting Profiled compression of Figs 5/14.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.footprint import imap_precisions
from repro.experiments.common import CI_MODEL_NAMES, DEFAULT_DATASET, traces_for
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Table3Row:
    network: str
    precisions: tuple[int, ...]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("mean_precision",)

    @property
    def max_precision(self) -> int:
        return max(self.precisions)

    @property
    def mean_precision(self) -> float:
        return sum(self.precisions) / len(self.precisions)


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> list[Table3Row]:
    rows = []
    for model in models:
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        rows.append(Table3Row(network=model, precisions=tuple(imap_precisions(traces))))
    return rows


def compute(profile: Profile | None = None) -> list[Table3Row]:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))
