"""Loop transcriptions of the vectorized cycle kernels in
:mod:`repro.arch.cycles`: one weight tap (and one channel brick) at a
time, the executable spec ``step_term_maxima`` and ``lane_term_totals``
are property-tested against, plus the two-aggregate head splice
``serial_layer_cycles`` is tested against."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.arch.cycles import LayerCycles, assemble_layer_cycles
from repro.nn.trace import ConvLayerTrace


def window_slice(
    arr: np.ndarray,
    fy: int,
    fx: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """The (..., out_h, out_w) view of tap (fy, fx) across all windows."""
    return arr[
        ...,
        fy * dilation : fy * dilation + (out_h - 1) * stride + 1 : stride,
        fx * dilation : fx * dilation + (out_w - 1) * stride + 1 : stride,
    ]


def step_term_maxima_loops(
    term_map: np.ndarray,
    kernel: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
    brick: int,
) -> tuple[np.ndarray, int]:
    """Reference loop implementation of ``step_term_maxima``."""
    term_map = np.asarray(term_map, dtype=np.int64)
    c = term_map.shape[0]
    bricks = math.ceil(c / brick)
    steps = bricks * kernel * kernel
    maxima = np.empty((steps, out_h, out_w), dtype=np.int64)
    total_terms = 0
    s = 0
    for cb in range(bricks):
        sub = term_map[cb * brick : (cb + 1) * brick]
        for fy in range(kernel):
            for fx in range(kernel):
                sl = window_slice(sub, fy, fx, stride, dilation, out_h, out_w)
                maxima[s] = sl.max(axis=0)
                total_terms += int(sl.sum())
                s += 1
    return maxima, total_terms


def lane_term_totals_loops(
    term_map: np.ndarray,
    kernel: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
    brick: int,
) -> tuple[np.ndarray, int]:
    """Reference loop implementation of ``lane_term_totals``."""
    term_map = np.asarray(term_map, dtype=np.int64)
    c = term_map.shape[0]
    bricks = math.ceil(c / brick)
    pad = bricks * brick - c
    arr = term_map
    if pad:
        arr = np.pad(term_map, ((0, pad), (0, 0), (0, 0)))
    folded = arr.reshape(bricks, brick, arr.shape[1], arr.shape[2]).sum(axis=0)
    totals = np.zeros((brick, out_h, out_w), dtype=np.int64)
    for fy in range(kernel):
        for fx in range(kernel):
            totals += window_slice(folded, fy, fx, stride, dilation, out_h, out_w)
    return totals, int(totals.sum())


def serial_layer_cycles_two_aggregates(
    layer: ConvLayerTrace,
    term_map: np.ndarray,
    config: AcceleratorConfig,
    head_term_map: Optional[np.ndarray] = None,
    axis: str = "x",
) -> LayerCycles:
    """Reference ``serial_layer_cycles``: the head windows of each chain
    are aggregated from ``head_term_map`` and spliced in, and the body
    terms they replace come from a second aggregate of ``term_map`` over
    the same head windows, under every sync model."""
    _, out_h, out_w = layer.omap_shape
    geom = (layer.kernel, layer.stride, layer.dilation)
    brick = config.terms_per_filter
    aggregate_fn = (
        lane_term_totals_loops
        if config.sync in ("lane", "row")
        else step_term_maxima_loops
    )
    aggregate, total = aggregate_fn(term_map, *geom, out_h, out_w, brick)
    if head_term_map is not None:
        if axis == "x":
            head_agg, head_terms = aggregate_fn(head_term_map, *geom, out_h, 1, brick)
            _, body_terms = aggregate_fn(term_map, *geom, out_h, 1, brick)
            aggregate[..., :, 0:1] = head_agg
        elif axis == "y":
            head_agg, head_terms = aggregate_fn(head_term_map, *geom, 1, out_w, brick)
            _, body_terms = aggregate_fn(term_map, *geom, 1, out_w, brick)
            aggregate[..., 0:1, :] = head_agg
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        total = int(total) - int(body_terms) + int(head_terms)
    return assemble_layer_cycles(layer, aggregate, float(total), config)
