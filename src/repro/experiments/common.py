"""Shared experiment plumbing: model lists, trace collection, geomeans."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.arch.sim import collect_traces
from repro.models.registry import CI_MODELS, CLASSIFICATION_MODELS
from repro.utils.rng import DEFAULT_SEED

#: The five CI-DNNs of Table I, in the paper's presentation order.
CI_MODEL_NAMES: tuple[str, ...] = tuple(CI_MODELS)

#: The Fig 19 classification/detection/segmentation models.
CLASSIFICATION_MODEL_NAMES: tuple[str, ...] = tuple(CLASSIFICATION_MODELS)

#: Default evaluation dataset for headline results (HD, as in the paper).
DEFAULT_DATASET = "HD33"

#: Default traces per model — enough for stable statistics, fast enough
#: for the committed goldens (``tests/test_paper_claims.py`` asserts the
#: paper's shapes on them).
DEFAULT_TRACE_COUNT = 2


def traces_for(
    model: str,
    dataset: str = DEFAULT_DATASET,
    count: int = DEFAULT_TRACE_COUNT,
    crop: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Seeded activation traces for one model (cached across experiments)."""
    return collect_traces(model, dataset, count, crop, seed)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional aggregate for speedups)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(vals))))
