"""Table VI: power breakdown and on-chip energy efficiency.

Component powers come from the calibrated layout model; the energy
efficiencies are computed from the *measured* speedups of this
reproduction (the paper's 1.83x/1.34x used its 7.1x/5.1x speedups).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.energy import EnergyModel
from repro.arch.sim import simulate_network
from repro.experiments.common import CI_MODEL_NAMES, DEFAULT_DATASET, geomean
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Table6Result:
    #: {design: {component: watts}}
    breakdowns: dict[str, dict[str, float]]
    #: {design: measured geomean speedup over VAA}
    speedups: dict[str, float]
    #: {design: on-chip energy efficiency vs VAA}
    efficiencies: dict[str, float]


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Table6Result:
    energy = EnergyModel()
    speedups = {}
    for accel in ("PRA", "Diffy"):
        ratios = []
        for model in models:
            vaa = simulate_network(
                model, "VAA", scheme="NoCompression",
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            res = simulate_network(
                model, accel, scheme="DeltaD16",
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            ratios.append(res.speedup_over(vaa))
        speedups[accel] = geomean(ratios)
    efficiencies = {
        accel: speedups[accel] / energy.power_ratio(accel)
        for accel in ("PRA", "Diffy")
    }
    breakdowns = {
        accel: energy.power_w(accel).as_dict() for accel in ("Diffy", "PRA", "VAA")
    }
    return Table6Result(
        breakdowns=breakdowns, speedups=speedups, efficiencies=efficiencies
    )


def compute(profile: Profile | None = None) -> Table6Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))
