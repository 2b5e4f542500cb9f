"""Table IV: the VAA, PRA and Diffy configurations.

A static report of the structural parameters — all three designs are
peak-normalized to 1K 16x16b MACs/cycle at 1 GHz.
"""

from __future__ import annotations

from repro.arch.config import TABLE4_CONFIGS, AcceleratorConfig
from repro.experiments.profiles import Profile, resolve_profile


def run() -> dict[str, AcceleratorConfig]:
    return dict(TABLE4_CONFIGS)


def compute(profile: Profile | None = None) -> dict[str, AcceleratorConfig]:
    """Static configuration table; the profile carries no knobs for it."""
    resolve_profile(profile)
    return run()
