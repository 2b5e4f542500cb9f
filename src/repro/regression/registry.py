"""The experiment registry: id -> module with a ``compute(profile)`` entry point.

Single source of truth shared by ``repro.experiments.run_all`` (which
renders ``compute(FULL_PROFILE)``) and the regression CLI (which pins
``compute(profile)`` in a golden).  Modules import lazily so
``python -m repro.regression list`` stays instant.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

#: (experiment id, module name) in the paper's presentation order.
_EXPERIMENT_MODULES: "tuple[tuple[str, str], ...]" = (
    ("table1", "table1_models"),
    ("fig01", "fig01_entropy"),
    ("fig02", "fig02_heatmaps"),
    ("fig03", "fig03_term_cdf"),
    ("fig04", "fig04_potential"),
    ("fig05", "fig05_footprint"),
    ("table3", "table3_precisions"),
    ("table4", "table4_configs"),
    ("fig11", "fig11_speedup"),
    ("fig12", "fig12_utilization"),
    ("fig13", "fig13_fps_hd"),
    ("table5", "table5_onchip"),
    ("fig14", "fig14_traffic"),
    ("fig15", "fig15_memnodes"),
    ("table6", "table6_power"),
    ("table7", "table7_area"),
    ("fig16", "fig16_tiling"),
    ("fig17", "fig17_lowres"),
    ("fig18", "fig18_scaling"),
    ("fig19", "fig19_classification"),
    ("fig20", "fig20_scnn"),
    ("ablations", "ablations"),
    ("ext_temporal", "ext_temporal"),
    ("ext_faults", "ext_faults"),
    ("ext_protection", "ext_protection"),
    ("ext_serving", "ext_serving"),
    ("ext_fleet", "ext_fleet"),
    ("ext_chaos", "ext_chaos"),
    ("ext_drift", "ext_drift"),
    ("ext_weights", "ext_weights"),
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment and its module."""

    exp_id: str
    module_name: str

    def load(self) -> ModuleType:
        return importlib.import_module(f"repro.experiments.{self.module_name}")

    @property
    def compute(self) -> Callable:
        """Profile-scaled computation returning a serializable result."""
        return self.load().compute


#: Ordered registry keyed by experiment id.
EXPERIMENT_SPECS: "dict[str, ExperimentSpec]" = {
    exp_id: ExperimentSpec(exp_id, module) for exp_id, module in _EXPERIMENT_MODULES
}


def select_specs(filters: "list[str] | None") -> "dict[str, ExperimentSpec]":
    """Substring-filtered view of the registry (same rule as run_all)."""
    if not filters:
        return dict(EXPERIMENT_SPECS)
    lowered = [f.lower() for f in filters]
    return {
        exp_id: spec
        for exp_id, spec in EXPERIMENT_SPECS.items()
        if any(f in exp_id for f in lowered)
    }
