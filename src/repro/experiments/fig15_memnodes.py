"""Fig 15: Diffy performance across off-chip memory technologies.

Six nodes from LPDDR3-1600 to HBM2, three compression regimes, speedups
normalized to VAA and also reported as a fraction of each network's
maximum (Ideal-memory) performance — the paper's headline: DeltaD16 keeps
every network near its maximum from LPDDR4-3200 up (JointNet within 8.2%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.memory import FIG15_NODES
from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
)
from repro.experiments.profiles import Profile, resolve_profile

FIG15_SCHEMES = ("NoCompression", "Profiled", "DeltaD16")


@dataclass(frozen=True)
class Fig15Cell:
    speedup_over_vaa: float
    fraction_of_max: float


@dataclass(frozen=True)
class Fig15Result:
    #: {network: {memory: {scheme: cell}}}
    grid: dict[str, dict[str, dict[str, Fig15Cell]]]
    nodes: tuple[str, ...]
    schemes: tuple[str, ...]


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    nodes: tuple[str, ...] = FIG15_NODES,
    schemes: tuple[str, ...] = FIG15_SCHEMES,
    channels: int = 1,
) -> Fig15Result:
    grid: dict[str, dict[str, dict[str, Fig15Cell]]] = {}
    for model in models:
        vaa = simulate_network(
            model, "VAA", scheme="NoCompression", memory="Ideal",
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        best = simulate_network(
            model, "Diffy", scheme="NoCompression", memory="Ideal",
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        grid[model] = {}
        for node in nodes:
            grid[model][node] = {}
            for scheme in schemes:
                res = simulate_network(
                    model, "Diffy", scheme=scheme, memory=node, channels=channels,
                    dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
                )
                grid[model][node][scheme] = Fig15Cell(
                    speedup_over_vaa=res.speedup_over(vaa),
                    fraction_of_max=best.total_time_s / res.total_time_s,
                )
    return Fig15Result(grid=grid, nodes=nodes, schemes=schemes)


def compute(profile: Profile | None = None) -> Fig15Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig15Result) -> str:
    blocks = []
    for model, per_node in result.grid.items():
        rows = []
        for node in result.nodes:
            cells = per_node[node]
            rows.append(
                [node]
                + [f"{cells[s].speedup_over_vaa:.2f}x" for s in result.schemes]
                + [f"{cells['DeltaD16'].fraction_of_max * 100:.0f}%"]
            )
        blocks.append(
            format_table(
                ["memory"] + list(result.schemes) + ["DeltaD16 % of max"],
                rows,
                title=f"Fig 15: Diffy vs memory node — {model}",
            )
        )
    return "\n\n".join(blocks)
