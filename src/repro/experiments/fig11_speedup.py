"""Fig 11: PRA and Diffy speedup over VAA under four compression regimes.

HD inputs, DDR4-3200 (Section IV-A).  The paper: PRA reaches ~5x with
DeltaD16 (5.1x ideal); Diffy 7.1x over VAA / 1.41x over PRA; only
JointNet keeps noticeable stalls (~8.2%) under DeltaD16.  Per layer,
Diffy/PRA has a mean of 1.42x and a standard deviation of 0.32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.diffy import DiffyModel
from repro.arch.pra import PRAModel
from repro.arch.sim import simulate_network
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    geomean,
    traces_for,
)
from repro.experiments.profiles import Profile, resolve_profile

#: Compression regimes of Fig 11 ("Ideal" = infinite off-chip bandwidth).
FIG11_SCHEMES = ("NoCompression", "Profiled", "DeltaD16", "Ideal")


@dataclass(frozen=True)
class Fig11Row:
    network: str
    #: {scheme: speedup-over-VAA} for each accelerator.
    pra: dict[str, float]
    diffy: dict[str, float]
    diffy_stall_fraction: float


@dataclass(frozen=True)
class Fig11Result:
    rows: tuple[Fig11Row, ...]
    memory: str
    #: Per-layer Diffy/PRA statistics (:func:`per_layer_diffy_over_pra`).
    per_layer: dict[str, float]

    def mean_speedup(self, accelerator: str, scheme: str) -> float:
        key = {"PRA": "pra", "Diffy": "diffy"}[accelerator]
        return geomean(getattr(row, key)[scheme] for row in self.rows)


def per_layer_diffy_over_pra(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> dict[str, float]:
    """Per-layer Diffy/PRA cycle ratios across all models' layers.

    The paper (IV-A): "fairly uniform with a mean of 1.42x and a standard
    deviation of 0.32.  Diffy underperforms PRA only on a few noncritical
    layers ... by at most 10%."  Returns mean, std, the worst layer ratio,
    and the fraction of layers where Diffy loses to PRA.
    """
    diffy_model, pra_model = DiffyModel(), PRAModel()
    ratios = []
    for model in models:
        for trace in traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed):
            for layer in trace:
                pra = pra_model.layer_cycles(layer).cycles
                diffy = diffy_model.layer_cycles(layer).cycles
                if diffy > 0 and pra > 0:
                    ratios.append(pra / diffy)
    arr = np.array(ratios)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "fraction_slower": float((arr < 1.0).mean()),
    }


def _simulate(model, accelerator, scheme, memory, trace_count, crop, seed):
    if scheme == "Ideal":
        return simulate_network(
            model, accelerator, scheme="NoCompression", memory="Ideal",
            dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
        )
    return simulate_network(
        model, accelerator, scheme=scheme, memory=memory,
        dataset_name=DEFAULT_DATASET, trace_count=trace_count, crop=crop, seed=seed,
    )


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
    memory: str = "DDR4-3200",
    schemes: tuple[str, ...] = FIG11_SCHEMES,
) -> Fig11Result:
    rows = []
    for model in models:
        # VAA is compute-bound; its compression scheme is irrelevant to
        # performance (the paper makes the same observation).
        vaa = _simulate(model, "VAA", "NoCompression", memory, trace_count, crop, seed)
        pra = {}
        diffy = {}
        diffy_stall = 0.0
        for scheme in schemes:
            pra_res = _simulate(model, "PRA", scheme, memory, trace_count, crop, seed)
            diffy_res = _simulate(model, "Diffy", scheme, memory, trace_count, crop, seed)
            pra[scheme] = pra_res.speedup_over(vaa)
            diffy[scheme] = diffy_res.speedup_over(vaa)
            if scheme == "DeltaD16":
                diffy_stall = diffy_res.stall_fraction
        rows.append(
            Fig11Row(network=model, pra=pra, diffy=diffy, diffy_stall_fraction=diffy_stall)
        )
    per_layer = per_layer_diffy_over_pra(
        models=models, trace_count=trace_count, crop=crop, seed=seed
    )
    return Fig11Result(rows=tuple(rows), memory=memory, per_layer=per_layer)


def compute(profile: Profile | None = None) -> Fig11Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Fig11Result) -> str:
    schemes = list(result.rows[0].pra)
    headers = ["network"] + [f"PRA {s}" for s in schemes] + [f"Diffy {s}" for s in schemes]
    table_rows = []
    for row in result.rows:
        table_rows.append(
            [row.network]
            + [f"{row.pra[s]:.2f}x" for s in schemes]
            + [f"{row.diffy[s]:.2f}x" for s in schemes]
        )
    table_rows.append(
        ["geomean"]
        + [f"{result.mean_speedup('PRA', s):.2f}x" for s in schemes]
        + [f"{result.mean_speedup('Diffy', s):.2f}x" for s in schemes]
    )
    table = format_table(
        headers, table_rows,
        title=f"Fig 11: speedup over VAA (HD, {result.memory})",
    )
    ratio = result.mean_speedup("Diffy", "DeltaD16") / result.mean_speedup("PRA", "DeltaD16")
    stats = result.per_layer
    return table + (
        f"\nDiffy/PRA at DeltaD16 = {ratio:.2f}x (paper: 1.41x); "
        f"stalls: " + ", ".join(
            f"{r.network}={r.diffy_stall_fraction * 100:.1f}%" for r in result.rows
        )
        + f"\nper-layer Diffy/PRA: mean {stats['mean']:.2f} std {stats['std']:.2f} "
        f"(paper: 1.42 / 0.32); worst layer {stats['min']:.2f}x, "
        f"{stats['fraction_slower'] * 100:.1f}% of layers slower than PRA "
        "(paper: a few noncritical layers, at most 10% slower)"
    )
