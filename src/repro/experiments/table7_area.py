"""Table VII: area breakdown.

Static report from the calibrated layout model: Diffy's area overhead over
VAA (1.24x) is lower than PRA's (1.33x) because DeltaD16 halves its AM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.energy import EnergyModel
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
