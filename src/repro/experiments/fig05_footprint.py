"""Fig 5: off-chip imap footprint under six compression approaches.

Normalized to storing every value at 16 bits.  The paper's findings:
RLEz/RLE help little (except VDSR), Profiled reaches 47-61%, RawD16
9.7-38.6%, and DeltaD16 8-30%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.footprint import imap_precisions, normalized_footprints
from repro.experiments.common import CI_MODEL_NAMES, DEFAULT_DATASET, traces_for
from repro.experiments.profiles import Profile, resolve_profile

#: The six approaches of Fig 5, in presentation order.
FIG5_SCHEMES = ("NoCompression", "RLEz", "RLE", "Profiled", "RawD16", "DeltaD16")


@dataclass(frozen=True)
class Fig5Result:
    """Per-network normalized footprints: {network: {scheme: ratio}}."""

    ratios: dict[str, dict[str, float]]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("scheme_means",)

    @property
    def scheme_means(self) -> dict[str, float]:
        """{scheme: footprint ratio averaged over the networks}."""
        per_net = list(self.ratios.values())
        return {s: sum(r[s] for r in per_net) / len(per_net) for s in per_net[0]}


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Fig5Result:
    ratios = {}
    for model in models:
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        precisions = imap_precisions(traces)
        ratios[model] = normalized_footprints(traces, FIG5_SCHEMES, precisions)
    return Fig5Result(ratios=ratios)


def compute(profile: Profile | None = None) -> Fig5Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))
