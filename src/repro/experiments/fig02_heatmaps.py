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

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("edge_fraction_negative",)

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
