"""Table V: on-chip AM/WM storage requirements under compression.

Paper: AM 964KB (16b) -> 782KB Profiled (-19%) -> 514KB RawD16 (-46%) ->
348KB DeltaD16 (a further 55%/32% reduction over Profiled/RawD16);
WM 324KB.  Our accounting uses the minimal streaming working set per layer
(``kernel`` imap rows + one omap row, maximized over models and layers at
HD); the scheme-to-scheme ratios are the reproducible claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.compression.footprint import am_requirement_bytes
from repro.experiments.common import CI_MODEL_NAMES, DEFAULT_DATASET, traces_for
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import build_model, prepare_model

#: Table V storage schemes, in presentation order.
TABLE5_SCHEMES = ("NoCompression", "Profiled", "RawD16", "DeltaD16")


@dataclass(frozen=True)
class Table5Result:
    #: Max-over-models AM requirement per scheme, bytes.
    am_bytes: dict[str, float]
    #: Double-buffered worst-case weight memory, bytes.
    wm_bytes: float
    resolution: tuple[int, int]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("ratios", "deltad16_savings", "am_pow2_bytes")

    @property
    def ratios(self) -> dict[str, float]:
        """{scheme: AM requirement relative to 16b storage}."""
        return {s: b / self.am_bytes["NoCompression"] for s, b in self.am_bytes.items()}

    @property
    def deltad16_savings(self) -> dict[str, float]:
        """DeltaD16's AM saving over Profiled and RawD16 (paper: 55% / 32%)."""
        return {s: 1 - self.am_bytes["DeltaD16"] / self.am_bytes[s] for s in ("Profiled", "RawD16")}

    @property
    def am_pow2_bytes(self) -> dict[str, int]:
        """Each AM requirement rounded up to a power of two (Section IV-C)."""
        return {s: 1 << math.ceil(math.log2(b)) for s, b in self.am_bytes.items()}


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
