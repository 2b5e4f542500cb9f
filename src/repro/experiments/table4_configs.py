"""Table IV: the VAA, PRA and Diffy configurations.

A static report of the structural parameters — all three designs are
peak-normalized to 1K 16x16b MACs/cycle at 1 GHz.
"""

from __future__ import annotations

from repro.arch.config import TABLE4_CONFIGS, AcceleratorConfig
from repro.experiments.common import format_table
from repro.experiments.profiles import Profile, resolve_profile


def run() -> dict[str, AcceleratorConfig]:
    return dict(TABLE4_CONFIGS)


def compute(profile: Profile | None = None) -> dict[str, AcceleratorConfig]:
    """Static configuration table; the profile carries no knobs for it."""
    resolve_profile(profile)
    return run()


def format_result(configs: dict[str, AcceleratorConfig]) -> str:
    rows = []
    for name, cfg in configs.items():
        rows.append(
            (
                name,
                cfg.tiles,
                cfg.filters_per_tile,
                cfg.terms_per_filter,
                cfg.windows_per_tile,
                cfg.peak_macs_per_cycle,
                f"{cfg.frequency_ghz:.1f} GHz",
            )
        )
    return format_table(
        [
            "design",
            "tiles",
            "filters/tile",
            "terms/filter",
            "windows/tile",
            "peak MACs/cycle",
            "frequency",
        ],
        rows,
        title="Table IV: accelerator configurations",
    )
