"""Fig 12: per-layer lane-utilization breakdown for Diffy.

Categories as in the paper: useful cycles, idle cycles (cross-lane
synchronization + filter/channel under-utilization), and off-chip stalls.
The paper's qualitative findings to reproduce: first layers are mostly
idle (3 of 16 activation lanes busy; FFDNet excepted thanks to its
15-channel input), last layers are mostly idle (3 of 64 filter lanes),
VDSR is idle-dominated throughout (sparsity-driven sync), and off-chip
stalls appear mainly for FFDNet/JointNet layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
)
from repro.experiments.profiles import Profile, resolve_profile


@dataclass(frozen=True)
class LayerUtilization:
    layer: str
    useful: float
    idle: float
    stall: float


@dataclass(frozen=True)
class Fig12Result:
    #: {network: [per-layer breakdown]}
    networks: dict[str, list[LayerUtilization]]

    def network_useful_mean(self, network: str) -> float:
        layers = self.networks[network]
        return sum(l.useful for l in layers) / len(layers)


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    scheme: str = "DeltaD16",
    memory: str = "DDR4-3200",
) -> Fig12Result:
    networks = {}
    for model in models:
        res = simulate_network(
            model, "Diffy", scheme=scheme, memory=memory,
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        networks[model] = [
            LayerUtilization(
                layer=layer.name,
                useful=layer.useful_fraction,
                idle=layer.idle_fraction,
                stall=layer.stall_fraction,
            )
            for layer in res.layers
        ]
    return Fig12Result(networks=networks)


def compute(profile: Profile | None = None) -> Fig12Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig12Result) -> str:
    blocks = []
    for network, layers in result.networks.items():
        rows = [
            (
                l.layer,
                f"{l.useful * 100:.0f}%",
                f"{l.idle * 100:.0f}%",
                f"{l.stall * 100:.0f}%",
            )
            for l in layers
        ]
        blocks.append(
            format_table(
                ["layer", "useful", "idle", "stall"],
                rows,
                title=f"Fig 12: Diffy lane utilization — {network}",
            )
        )
    return "\n\n".join(blocks)
