"""Table VI: power breakdown and on-chip energy efficiency.

Component powers come from the calibrated layout model; the energy
efficiencies are computed from the *measured* speedups of this
reproduction (the paper's 1.83x/1.34x used its 7.1x/5.1x speedups).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.energy import EnergyModel
from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    geomean,
)
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
    scheme: str = "DeltaD16",
    memory: str = "DDR4-3200",
) -> Table6Result:
    energy = EnergyModel()
    speedups = {}
    for accel in ("PRA", "Diffy"):
        ratios = []
        for model in models:
            vaa = simulate_network(
                model, "VAA", scheme="NoCompression", memory=memory,
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            res = simulate_network(
                model, accel, scheme=scheme, memory=memory,
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


def format_result(result: Table6Result) -> str:
    components = [k for k in result.breakdowns["Diffy"] if k != "total"]
    rows = [
        [comp] + [f"{result.breakdowns[d][comp]:.2f}" for d in ("Diffy", "PRA", "VAA")]
        for comp in components
    ]
    rows.append(
        ["total"] + [f"{result.breakdowns[d]['total']:.2f}" for d in ("Diffy", "PRA", "VAA")]
    )
    table = format_table(
        ["component [W]", "Diffy", "PRA", "VAA"],
        rows,
        title="Table VI: power breakdown",
    )
    eff = result.efficiencies
    return table + (
        f"\nmeasured speedups: Diffy {result.speedups['Diffy']:.2f}x, "
        f"PRA {result.speedups['PRA']:.2f}x"
        f"\nenergy efficiency vs VAA: Diffy {eff['Diffy']:.2f}x (paper 1.83x), "
        f"PRA {eff['PRA']:.2f}x (paper 1.34x)"
    )
