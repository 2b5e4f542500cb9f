"""Fig 14: off-chip traffic under nine schemes, normalized to 16b storage.

Paper: RLEz/RLE help only VDSR; Profiled ~54%; RawD256 39%, RawD16/RawD8
~28%; DeltaD16 22% (1.43x less than RawD16); DeltaD256 loses to DeltaD16's
finer groups despite the extra headers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.compression.traffic import normalized_traffic
from repro.experiments.common import CI_MODEL_NAMES, DEFAULT_DATASET, traces_for
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import prepare_model

#: The Fig 14 scheme sweep.
FIG14_SCHEMES = (
    "NoCompression",
    "RLEz",
    "RLE",
    "Profiled",
    "RawD256",
    "RawD16",
    "RawD8",
    "DeltaD256",
    "DeltaD16",
)


@dataclass(frozen=True)
class Fig14Result:
    #: {network: {scheme: traffic ratio vs NoCompression}}
    ratios: dict[str, dict[str, float]]
    resolution: tuple[int, int]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("scheme_means", "deltad16_improvement_over_rawd16")

    @property
    def scheme_means(self) -> dict[str, float]:
        """{scheme: traffic ratio averaged over the networks}."""
        per_net = list(self.ratios.values())
        return {s: sum(r[s] for r in per_net) / len(per_net) for s in per_net[0]}

    @property
    def deltad16_improvement_over_rawd16(self) -> float:
        """Mean RawD16 traffic over mean DeltaD16 traffic (paper: 1.27x-1.43x)."""
        means = self.scheme_means
        return means["RawD16"] / means["DeltaD16"]


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    schemes: tuple[str, ...] = FIG14_SCHEMES,
) -> Fig14Result:
    ratios = {}
    for model in models:
        net = prepare_model(model, seed)
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        ratios[model] = normalized_traffic(net, traces, schemes, *HD_RESOLUTION)
    return Fig14Result(ratios=ratios, resolution=HD_RESOLUTION)


def compute(profile: Profile | None = None) -> Fig14Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))
