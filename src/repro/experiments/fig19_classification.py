"""Fig 19: classification / detection / segmentation models.

Diffy is not CI-specific: the paper reports 6.1x over VAA and 1.16x over
PRA on ImageNet-class models (plus FCN_Seg, YOLO V2, SegNet), with most
benefit in the early, image-like layers (> 2.1x over PRA there).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.diffy import DiffyModel
from repro.arch.pra import PRAModel
from repro.arch.sim import simulate_network
from repro.experiments.common import CLASSIFICATION_MODEL_NAMES, geomean, traces_for
from repro.experiments.profiles import Profile, resolve_profile

#: Classification inputs: ImageNet-scale frames.
CLS_RESOLUTION = (224, 224)

#: Frames traced for the classification models.
FIG19_DATASET = "Kodak24"


@dataclass(frozen=True)
class Fig19Row:
    network: str
    diffy_over_vaa: float
    diffy_over_pra: float
    first_layer_diffy_over_pra: float


@dataclass(frozen=True)
class Fig19Result:
    rows: tuple[Fig19Row, ...]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = (
        "mean_over_vaa",
        "mean_over_pra",
        "mean_first_layer_over_pra",
    )

    @property
    def mean_over_vaa(self) -> float:
        return geomean(r.diffy_over_vaa for r in self.rows)

    @property
    def mean_over_pra(self) -> float:
        return geomean(r.diffy_over_pra for r in self.rows)

    @property
    def mean_first_layer_over_pra(self) -> float:
        return geomean(r.first_layer_diffy_over_pra for r in self.rows)


def run(
    *,
    models: tuple[str, ...],
    trace_count: int,
    crop: int | None,
    seed: int,
) -> Fig19Result:
    rows = []
    for model in models:
        kw = dict(
            dataset_name=FIG19_DATASET, trace_count=trace_count,
            resolution=CLS_RESOLUTION, crop=crop, seed=seed,
        )
        vaa = simulate_network(model, "VAA", scheme="NoCompression", **kw)
        pra = simulate_network(model, "PRA", scheme="DeltaD16", **kw)
        diffy = simulate_network(model, "Diffy", scheme="DeltaD16", **kw)
        # Early-layer comparison straight from the cycle models.
        traces = traces_for(model, FIG19_DATASET, trace_count, crop, seed=seed)
        first = traces[0][0]
        pra_first = PRAModel().layer_cycles(first).cycles
        diffy_first = DiffyModel().layer_cycles(first).cycles
        rows.append(
            Fig19Row(
                network=model,
                diffy_over_vaa=diffy.speedup_over(vaa),
                diffy_over_pra=diffy.speedup_over(pra),
                first_layer_diffy_over_pra=pra_first / diffy_first,
            )
        )
    return Fig19Result(rows=tuple(rows))


def compute(profile: Profile | None = None) -> Fig19Result:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).sweep_kwargs(CLASSIFICATION_MODEL_NAMES))
