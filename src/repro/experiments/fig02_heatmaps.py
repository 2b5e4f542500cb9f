"""Fig 2: spatial-correlation heatmaps of DnCNN's conv_3 on "Barbara".

The paper shows (a) the raw imap, (b) the adjacent-along-X deltas peaking
only at edges, and (c) the per-activation effectual-term reduction, with
an average of 3.65 terms per activation vs 1.9 per delta (1.9x potential).
We regenerate the same three arrays on the synthetic Barbara stand-in and
report the caption statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.spatial import HeatmapData, heatmap_data
from repro.data.datasets import dataset
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.inputs import adapt_input
from repro.models.registry import get_model_spec, prepare_model


@dataclass(frozen=True)
class Fig2Result:
    """Heatmap arrays plus summary statistics for the traced layer."""

    model: str
    layer: str
    heatmaps: HeatmapData

    @property
    def edge_fraction_negative(self) -> float:
        """Fraction of pixels where deltas *cost* extra terms (edges)."""
        return float((self.heatmaps.term_reduction < 0).mean())


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    layer_name: str = "conv_3",
) -> Fig2Result:
    """Trace ``model`` on the Barbara stand-in and extract layer heatmaps."""
    spec = get_model_spec(model)
    net = prepare_model(model, seed)
    image = dataset("barbara").crop(0, crop, seed=seed)
    trace = net.trace(adapt_input(spec.input_adapter, image))
    layer = trace.layer_named(layer_name)
    return Fig2Result(model=model, layer=layer_name, heatmaps=heatmap_data(layer))


def compute(profile: Profile | None = None) -> Fig2Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).one_model_kwargs(128))


def format_result(result: Fig2Result) -> str:
    hm = result.heatmaps
    lines = [
        f"Fig 2: {result.model} {result.layer} on synthetic Barbara",
        f"  (a) raw |activation| heatmap   mean={hm.raw.mean():.1f}  max={hm.raw.max():.1f}",
        f"  (b) |delta| heatmap            mean={hm.delta.mean():.1f}  max={hm.delta.max():.1f}",
        f"  (c) term reduction             mean={hm.term_reduction.mean():.2f} terms/activation",
        f"  avg terms per activation = {hm.mean_terms_raw:.2f}  (paper: 3.65)",
        f"  avg terms per delta      = {hm.mean_terms_delta:.2f}  (paper: 1.9)",
        f"  potential work reduction = {hm.potential_work_reduction:.2f}x (paper: 1.9x)",
        f"  pixels where deltas cost extra terms (edges): "
        f"{result.edge_fraction_negative * 100:.1f}%",
    ]
    return "\n".join(lines)
