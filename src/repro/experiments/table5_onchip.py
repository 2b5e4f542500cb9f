"""Table V: on-chip AM/WM storage requirements under compression.

Paper: AM 964KB (16b) -> 782KB Profiled (-19%) -> 514KB RawD16 (-46%) ->
348KB DeltaD16 (a further 55%/32% reduction over Profiled/RawD16);
WM 324KB.  Our accounting uses the minimal streaming working set per layer
(``kernel`` imap rows + one omap row, maximized over models and layers at
HD); the scheme-to-scheme ratios are the reproducible claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.compression.footprint import am_requirement_bytes
from repro.experiments.common import (
    CI_MODEL_NAMES,
    DEFAULT_DATASET,
    format_table,
    human_bytes,
    round_up_pow2,
    traces_for,
)
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import build_model, prepare_model

#: Table V storage schemes, in presentation order.
TABLE5_SCHEMES = ("NoCompression", "Profiled", "RawD16", "DeltaD16")

#: Paper AM sizes for the comparison row (KB).
PAPER_AM_KB = {"NoCompression": 964, "Profiled": 782, "RawD16": 514, "DeltaD16": 348}


@dataclass(frozen=True)
class Table5Result:
    #: Max-over-models AM requirement per scheme, bytes.
    am_bytes: dict[str, float]
    #: Double-buffered worst-case weight memory, bytes.
    wm_bytes: float
    resolution: tuple[int, int]

    def ratio(self, scheme: str) -> float:
        return self.am_bytes[scheme] / self.am_bytes["NoCompression"]


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Table5Result:
    am: dict[str, float] = {s: 0.0 for s in TABLE5_SCHEMES}
    for model in models:
        net = prepare_model(model, seed)
        traces = traces_for(model, DEFAULT_DATASET, trace_count, crop, seed=seed)
        for scheme in TABLE5_SCHEMES:
            req = am_requirement_bytes(net, traces, scheme, *HD_RESOLUTION)
            am[scheme] = max(am[scheme], req)
    # WM: the largest per-layer filter set, double buffered (Section III-F).
    wm = 2.0 * max(build_model(m, seed).max_layer_filter_bytes() for m in models)
    return Table5Result(am_bytes=am, wm_bytes=wm, resolution=HD_RESOLUTION)


def compute(profile: Profile | None = None) -> Table5Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CI_MODEL_NAMES))


def format_result(result: Table5Result) -> str:
    rows = []
    for scheme, req in result.am_bytes.items():
        rows.append(
            (
                scheme,
                human_bytes(req),
                f"{result.ratio(scheme) * 100:.0f}%",
                f"{PAPER_AM_KB[scheme]}KB" if scheme in PAPER_AM_KB else "-",
                f"{PAPER_AM_KB[scheme] / PAPER_AM_KB['NoCompression'] * 100:.0f}%"
                if scheme in PAPER_AM_KB
                else "-",
                human_bytes(round_up_pow2(req)),
            )
        )
    table = format_table(
        ["scheme", "AM needed", "vs 16b", "paper AM", "paper vs 16b", "rounded pow2"],
        rows,
        title=f"Table V: on-chip storage at {result.resolution[1]}x{result.resolution[0]}",
    )
    deltad_vs_prof = 1 - result.am_bytes["DeltaD16"] / result.am_bytes["Profiled"]
    deltad_vs_rawd = 1 - result.am_bytes["DeltaD16"] / result.am_bytes["RawD16"]
    return table + (
        f"\nWM (double-buffered worst layer): {human_bytes(result.wm_bytes)} (paper 324KB)"
        f"\nDeltaD16 vs Profiled: -{deltad_vs_prof * 100:.0f}% (paper -55%); "
        f"vs RawD16: -{deltad_vs_rawd * 100:.0f}% (paper -32%)"
    )
