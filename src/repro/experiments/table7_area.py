"""Table VII: area breakdown.

Static report from the calibrated layout model: Diffy's area overhead over
VAA (1.24x) is lower than PRA's (1.33x) because DeltaD16 halves its AM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.energy import EnergyModel
from repro.experiments.common import format_table
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class Table7Result:
    #: {design: {component: mm^2}}
    breakdowns: dict[str, dict[str, float]]
    #: {design: total-area ratio vs VAA}
    ratios: dict[str, float]


def run() -> Table7Result:
    energy = EnergyModel()
    breakdowns = {
        accel: energy.area_mm2(accel).as_dict() for accel in ("Diffy", "PRA", "VAA")
    }
    ratios = {accel: energy.area_ratio(accel) for accel in ("Diffy", "PRA")}
    return Table7Result(breakdowns=breakdowns, ratios=ratios)


def compute(profile: Profile | None = None) -> Table7Result:
    """Static layout-model table; the profile carries no knobs for it."""
    resolve_profile(profile)
    return run()


def format_result(result: Table7Result) -> str:
    components = [k for k in result.breakdowns["Diffy"] if k != "total"]
    rows = [
        [comp] + [f"{result.breakdowns[d][comp]:.2f}" for d in ("Diffy", "PRA", "VAA")]
        for comp in components
    ]
    rows.append(
        ["total"] + [f"{result.breakdowns[d]['total']:.2f}" for d in ("Diffy", "PRA", "VAA")]
    )
    table = format_table(
        ["component [mm2]", "Diffy", "PRA", "VAA"],
        rows,
        title="Table VII: area breakdown (65nm)",
    )
    return table + (
        f"\nnormalized to VAA: Diffy {result.ratios['Diffy']:.2f}x (paper 1.24x), "
        f"PRA {result.ratios['PRA']:.2f}x (paper 1.33x)"
    )
