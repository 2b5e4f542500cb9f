"""Loop transcriptions of the vectorized cycle kernels in
:mod:`repro.arch.cycles`: one weight tap (and one channel brick) at a
time, the executable spec ``step_term_maxima`` and ``lane_term_totals``
are property-tested against."""

from __future__ import annotations

import math

import numpy as np


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
