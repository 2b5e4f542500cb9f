"""Shared experiment plumbing: model lists, trace collection, formatting."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width ASCII table (monospace-aligned)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def human_bytes(num_bytes: float) -> str:
    """Format a byte count the way the paper's tables do (KB/MB)."""
    if num_bytes < 0:
        raise ValueError("negative byte count")
    if num_bytes >= 1 << 20:
        return f"{num_bytes / (1 << 20):.2f}MB"
    return f"{num_bytes / 1024:.0f}KB"


def round_up_pow2(value: float) -> int:
    """Round a capacity up to the next power of two (Section IV-C)."""
    if value <= 0:
        raise ValueError("capacity must be positive")
    return 1 << math.ceil(math.log2(value))
