"""Fig 14: off-chip traffic under nine schemes, normalized to 16b storage.

Paper: RLEz/RLE help only VDSR; Profiled ~54%; RawD256 39%, RawD16/RawD8
~28%; DeltaD16 22% (1.43x less than RawD16); DeltaD256 loses to DeltaD16's
finer groups despite the extra headers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.compression.traffic import normalized_traffic
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    traces_for,
)
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

    def scheme_mean(self, scheme: str) -> float:
        vals = [r[scheme] for r in self.ratios.values()]
        return sum(vals) / len(vals)


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


def format_result(result: Fig14Result) -> str:
    schemes = list(next(iter(result.ratios.values())))
    rows = [
        [model] + [f"{result.ratios[model][s] * 100:.0f}%" for s in schemes]
        for model in result.ratios
    ]
    rows.append(["average"] + [f"{result.scheme_mean(s) * 100:.0f}%" for s in schemes])
    table = format_table(
        ["network"] + schemes,
        rows,
        title="Fig 14: off-chip traffic normalized to NoCompression (HD)",
    )
    if "RawD16" in schemes and "DeltaD16" in schemes:
        improvement = result.scheme_mean("RawD16") / result.scheme_mean("DeltaD16")
        table += (
            f"\nDeltaD16 traffic improvement over RawD16: {improvement:.2f}x "
            "(paper: 1.27x-1.43x)"
        )
    return table
