"""Design ablations called out by DESIGN.md.

Four studies that quantify design choices the paper discusses but does not
plot directly:

- ``sync``: synchronization-granularity sweep (row/lane/column/pallet)
  for PRA and Diffy — the "cross-lane synchronization" loss of IV-A/IV-E.
- ``axis``: X- vs Y-axis differential chains (III-C: "the method can be
  applied along the H or the W dimensions").
- ``group_size``: dynamic-precision group-size sweep for delta traffic
  (the Fig 14 discussion of metadata-vs-fit).
- ``selective``: per-layer selective differential convolution (IV-A's
  last paragraph: eliminates per-layer slowdowns vs PRA but improves the
  total by under 1%).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.arch.config import DIFFY_CONFIG, PRA_CONFIG
from repro.arch.diffy import DiffyModel
from repro.arch.pra import PRAModel
from repro.arch.sim import simulate_network
from repro.compression.traffic import normalized_traffic
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    geomean,
    traces_for,
)
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import prepare_model

SYNC_MODELS = ("row", "lane", "column", "pallet")


# ---------------------------------------------------------------------------
# Sync-granularity ablation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SyncAblationResult:
    #: {sync: geomean speedup over VAA} per accelerator.
    pra: dict[str, float]
    diffy: dict[str, float]


def run_sync(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> SyncAblationResult:
    pra: dict[str, list[float]] = {s: [] for s in SYNC_MODELS}
    diffy: dict[str, list[float]] = {s: [] for s in SYNC_MODELS}
    for model in models:
        vaa = simulate_network(
            model, "VAA", scheme="NoCompression", memory="Ideal",
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
        for sync in SYNC_MODELS:
            pra_res = simulate_network(
                model, "PRA", scheme="DeltaD16", memory="Ideal",
                config=dataclasses.replace(PRA_CONFIG, sync=sync),
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            diffy_res = simulate_network(
                model, "Diffy", scheme="DeltaD16", memory="Ideal",
                config=dataclasses.replace(DIFFY_CONFIG, sync=sync),
                dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
            )
            pra[sync].append(pra_res.speedup_over(vaa))
            diffy[sync].append(diffy_res.speedup_over(vaa))
    return SyncAblationResult(
        pra={s: geomean(v) for s, v in pra.items()},
        diffy={s: geomean(v) for s, v in diffy.items()},
    )


def format_sync(result: SyncAblationResult) -> str:
    rows = [
        (sync, f"{result.pra[sync]:.2f}x", f"{result.diffy[sync]:.2f}x")
        for sync in SYNC_MODELS
    ]
    return format_table(
        ["sync granularity", "PRA/VAA", "Diffy/VAA"],
        rows,
        title="Ablation: cross-lane synchronization granularity",
    )


# ---------------------------------------------------------------------------
# Delta-axis ablation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AxisAblationResult:
    #: {network: {axis: total Diffy cycles}}
    cycles: dict[str, dict[str, float]]

    def ratio(self, network: str) -> float:
        """Y-axis cycles over X-axis cycles (1.0 = equivalent)."""
        return self.cycles[network]["y"] / self.cycles[network]["x"]


def run_axis(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> AxisAblationResult:
    cycles: dict[str, dict[str, float]] = {}
    for model in models:
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        cycles[model] = {}
        for axis in ("x", "y"):
            diffy = DiffyModel(axis=axis)
            total = 0.0
            for trace in traces:
                total += sum(diffy.layer_cycles(layer).cycles for layer in trace)
            cycles[model][axis] = total
    return AxisAblationResult(cycles=cycles)


def format_axis(result: AxisAblationResult) -> str:
    rows = [
        (model, f"{result.ratio(model):.3f}") for model in result.cycles
    ]
    return format_table(
        ["network", "Y-axis / X-axis cycles"],
        rows,
        title="Ablation: differential chain axis (1.0 = equivalent)",
    )


# ---------------------------------------------------------------------------
# Group-size ablation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GroupSizeAblationResult:
    #: {network: {scheme: traffic ratio}}
    ratios: dict[str, dict[str, float]]
    schemes: tuple[str, ...]


def run_group_size(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    resolution: tuple[int, int] = (1080, 1920),
) -> GroupSizeAblationResult:
    schemes = ("DeltaD256", "DeltaD16", "RawD8", "RawD16", "RawD256")
    ratios = {}
    for model in models:
        net = prepare_model(model, seed)
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        ratios[model] = normalized_traffic(net, traces, schemes, *resolution)
    return GroupSizeAblationResult(ratios=ratios, schemes=schemes)


def format_group_size(result: GroupSizeAblationResult) -> str:
    rows = [
        [model] + [f"{result.ratios[model][s] * 100:.0f}%" for s in result.schemes]
        for model in result.ratios
    ]
    return format_table(
        ["network"] + list(result.schemes),
        rows,
        title="Ablation: dynamic-precision group size (traffic vs NoCompression)",
    )


# ---------------------------------------------------------------------------
# Selective per-layer differential convolution
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectiveResult:
    network: str
    diffy_cycles: float
    pra_cycles: float
    selective_cycles: float
    layers_reverted: int

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("improvement_over_diffy",)

    @property
    def improvement_over_diffy(self) -> float:
        """Fractional cycle reduction from per-layer selection."""
        return 1.0 - self.selective_cycles / self.diffy_cycles


def run_selective(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> list[SelectiveResult]:
    """Choose, per layer, the faster of differential and raw processing.

    Models the paper's profiled variant that reverts layers where
    differential convolution would lose to PRA (the DR multiplexer exists
    exactly for this, Section III-E).
    """
    out = []
    for model in models:
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        diffy_model = DiffyModel()
        pra_model = PRAModel()
        diffy_total = pra_total = selective_total = 0.0
        reverted = set()
        for trace in traces:
            for layer in trace:
                d = diffy_model.layer_cycles(layer).cycles
                p = pra_model.layer_cycles(layer).cycles
                diffy_total += d
                pra_total += p
                selective_total += min(d, p)
                if p < d:
                    reverted.add(layer.name)
        out.append(
            SelectiveResult(
                network=model,
                diffy_cycles=diffy_total,
                pra_cycles=pra_total,
                selective_cycles=selective_total,
                layers_reverted=len(reverted),
            )
        )
    return out


def format_selective(results: Sequence[SelectiveResult]) -> str:
    rows = [
        (
            r.network,
            r.layers_reverted,
            f"{r.improvement_over_diffy * 100:.2f}%",
        )
        for r in results
    ]
    return format_table(
        ["network", "layers reverted", "cycles saved vs always-differential"],
        rows,
        title="Ablation: selective per-layer differential convolution "
        "(paper: below 1% at best)",
    )


# ---------------------------------------------------------------------------
# Combined entry point for the golden-regression harness
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AblationsResult:
    sync: SyncAblationResult
    axis: AxisAblationResult
    group_size: GroupSizeAblationResult
    selective: tuple[SelectiveResult, ...]


def compute(profile: Profile | None = None) -> AblationsResult:
    """Profile-scaled entry point for the golden-regression harness."""
    kw = resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES)
    return AblationsResult(
        sync=run_sync(**kw),
        axis=run_axis(**kw),
        group_size=run_group_size(**kw),
        selective=tuple(run_selective(**kw)),
    )


def format_result(result: AblationsResult) -> str:
    return "\n\n".join(
        (
            format_sync(result.sync),
            format_axis(result.axis),
            format_group_size(result.group_size),
            format_selective(result.selective),
        )
    )
