"""Power, area and energy-efficiency model (Tables VI and VII).

The paper obtains component power/area from synthesized + laid-out Verilog
(65nm TSMC, 1 GHz) and CACTI for the SRAMs.  Offline we model each design
as a component-power table calibrated to the paper's layout results, with
energy = power x execution time — the same accounting the paper uses for
its on-chip energy-efficiency ratios:

    efficiency(X vs VAA) = (t_VAA * P_VAA) / (t_X * P_X)
                         = speedup(X) / power_ratio(X)

which yields the paper's 1.83x (Diffy) and 1.34x (PRA) at the paper's
speedups.  Off-chip DRAM energy is accounted separately via the memory
system (Section IV-D notes the on-chip tables ignore it and that it only
widens Diffy's advantage).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ComponentBreakdown:
    """Per-component figures (W for power, mm^2 for area).

    Components follow Tables VI/VII: compute cores (SIPs/IPs + Diffy's DR
    engines), activation memory, weight memory, activation buffers,
    dispatcher, offset generators, and Diffy's Delta_out engines.
    """

    compute: float
    am: float
    wm: float
    ab: float
    dispatcher: float
    offset_gens: float
    delta_out: float

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, float]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["total"] = self.total
        return d


#: Table VI: power in watts.  Diffy's AM is smaller (DeltaD16 halves its
#: capacity) but its compute adds the DR engines; VAA has no offset
#: generators and a narrow, window-serial datapath.
POWER_TABLE: dict[str, ComponentBreakdown] = {
    "Diffy": ComponentBreakdown(
        compute=11.75, am=0.79, wm=0.37, ab=0.15,
        dispatcher=0.25, offset_gens=0.21, delta_out=0.03,
    ),
    "PRA": ComponentBreakdown(
        compute=10.80, am=1.36, wm=0.37, ab=0.15,
        dispatcher=0.25, offset_gens=0.21, delta_out=0.0,
    ),
    "VAA": ComponentBreakdown(
        compute=2.90, am=0.35, wm=0.12, ab=0.05,
        dispatcher=0.10, offset_gens=0.0, delta_out=0.0,
    ),
}

#: Table VII: area in mm^2 (65nm).
AREA_TABLE: dict[str, ComponentBreakdown] = {
    "Diffy": ComponentBreakdown(
        compute=15.50, am=6.05, wm=6.05, ab=0.23,
        dispatcher=0.37, offset_gens=1.00, delta_out=0.02,
    ),
    "PRA": ComponentBreakdown(
        compute=14.49, am=8.61, wm=6.05, ab=0.23,
        dispatcher=0.37, offset_gens=1.00, delta_out=0.0,
    ),
    "VAA": ComponentBreakdown(
        compute=10.00, am=8.61, wm=4.35, ab=0.23,
        dispatcher=0.37, offset_gens=0.0, delta_out=0.0,
    ),
}


class EnergyModel:
    """Turns execution times into on-chip energy and efficiency ratios."""

    def _lookup(self, table: dict[str, ComponentBreakdown], name: str) -> ComponentBreakdown:
        try:
            return table[name]
        except KeyError:
            raise KeyError(
                f"no layout data for accelerator {name!r}; "
                f"available: {sorted(table)}"
            ) from None

    def power_w(self, accelerator: str) -> ComponentBreakdown:
        """Component power breakdown (Table VI)."""
        return self._lookup(POWER_TABLE, accelerator)

    def area_mm2(self, accelerator: str) -> ComponentBreakdown:
        """Component area breakdown (Table VII)."""
        return self._lookup(AREA_TABLE, accelerator)

    def onchip_energy_j(self, accelerator: str, time_s: float) -> float:
        """On-chip energy for an execution of ``time_s`` seconds."""
        if time_s < 0:
            raise ValueError(f"time_s must be >= 0, got {time_s}")
        return self.power_w(accelerator).total * time_s

    def power_ratio(self, accelerator: str) -> float:
        """Total-power ratio accelerator/VAA (Table VI 'Normalized')."""
        return self.power_w(accelerator).total / self.power_w("VAA").total

    def area_ratio(self, accelerator: str) -> float:
        """Total-area ratio accelerator/VAA (Table VII 'Normalized')."""
        return self.area_mm2(accelerator).total / self.area_mm2("VAA").total
