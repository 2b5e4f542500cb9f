"""Differential convolution (the paper's Eq 4), bit-exact.

Given an output row, direct convolution computes every output from raw
activation windows.  Differential convolution computes only the first
output of the row directly; every subsequent output is the previous output
plus the inner product of the weights with the *element-wise delta* of the
two adjacent windows:

    o(n, y, x+1) = o(n, y, x) + <w_n, Delta>                      (Eq 4)
    Delta(k, j, i) = a(k, j + yS, i + (x+1)S) - a(k, j + yS, i + xS)

Because multiplication distributes over the subtraction, the result is
*exactly* equal to direct convolution — there is no approximation anywhere
in Diffy.  The tests assert this equality on random integer tensors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import conv2d_int
from repro.core.deltas import reconstruct_from_deltas, spatial_deltas
from repro.utils.validation import check_axis, check_integer_array, check_positive


def differential_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    axis: str = "x",
) -> np.ndarray:
    """Convolve using differential windows; exact equal to direct conv.

    The computation mirrors the hardware dataflow (Section III-D): the
    leftmost output of each row is an ordinary inner product on raw values;
    every other output's *differential component* is an inner product on
    window deltas; a cascaded prefix sum then reconstructs the outputs.

    Parameters
    ----------
    x:
        Integer (C, H, W) input feature map.
    weights:
        Integer (K, C, Hf, Wf) filter bank.
    axis:
        Differential chain direction: ``"x"`` (along rows, the paper's
        choice) or ``"y"`` (along columns).

    A float ``x`` or ``weights`` (even one of whole numbers, or NaN)
    raises ``ValueError`` naming the argument, before any convolution.
    """
    check_axis("axis", axis)
    arr = check_integer_array("x", x).astype(np.int64, copy=False)
    w = check_integer_array("weights", weights).astype(np.int64, copy=False)

    if padding:
        arr = np.pad(arr, ((0, 0), (padding, padding), (padding, padding)))

    # Window deltas are the spatial deltas of the (padded) imap at the
    # window stride: adjacent windows differ elementwise by exactly these.
    deltas = spatial_deltas(arr, axis=axis, stride=stride)

    # Differential components for every window: inner products on deltas.
    diff = conv2d_int(deltas, w, None, stride=stride, padding=0, dilation=dilation)

    # The first window along the chain axis must be computed directly from
    # raw values.  spatial_deltas keeps raw values in the first `stride`
    # positions, and the first window only covers positions < effective
    # kernel extent... which may include *delta* positions when the kernel
    # is wider than the stride.  So recompute the head column/row directly.
    chain_ax = 2 if axis == "x" else 1
    head_idx = [slice(None)] * 3
    head_idx[chain_ax] = slice(0, 1)
    eff = ((w.shape[2] - 1) * dilation + 1, (w.shape[3] - 1) * dilation + 1)
    if axis == "x":
        head_input = arr[:, :, : eff[1]]
    else:
        head_input = arr[:, : eff[0], :]
    head = conv2d_int(head_input, w, None, stride=stride, padding=0, dilation=dilation)
    diff[tuple(head_idx)] = head[tuple(head_idx)]

    # Cascaded reconstruction (the DR engines): prefix sum along the chain.
    out = np.cumsum(diff, axis=chain_ax)

    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64).reshape(-1, 1, 1)
    return out


def keyframe_anchor_mask(
    n: int, interval: Optional[int], stride: int = 1
) -> np.ndarray:
    """Boolean mask of anchor positions along a chain axis of length ``n``.

    Positions whose chain index (``x // stride``) is a multiple of
    ``interval`` are anchors — stored raw instead of as deltas, so a
    reconstruction error cannot propagate past the next anchor.
    ``interval=None`` (the DeltaD16 endpoint) anchors only the chain
    heads; ``interval=1`` (the Raw16 endpoint) anchors everything.
    """
    if interval is not None and interval < 1:
        raise ValueError(f"interval must be >= 1 or None, got {interval}")
    check_positive("stride", stride)
    chain_index = np.arange(n) // stride
    if interval is None:
        return chain_index == 0
    return (chain_index % interval) == 0


def keyframe_deltas(
    fmap: np.ndarray,
    interval: Optional[int] = None,
    axis: str = "x",
    stride: int = 1,
) -> np.ndarray:
    """Spatial deltas with every ``interval``-th chain position kept raw.

    Identical to :func:`repro.core.deltas.spatial_deltas` except that
    anchor positions (see :func:`keyframe_anchor_mask`) hold the raw
    activation value rather than a difference — the keyframe mechanism of
    :mod:`repro.protect`, bounding worst-case error-run length to
    ``interval``.  ``interval=None`` reproduces plain spatial deltas
    exactly; ``interval=1`` reproduces the raw map exactly.
    """
    check_axis("axis", axis)
    arr = np.asarray(fmap, dtype=np.int64)
    deltas = spatial_deltas(arr, axis=axis, stride=stride)
    if interval is None:
        return deltas
    ax = arr.ndim - 1 if axis == "x" else arr.ndim - 2
    mask = keyframe_anchor_mask(arr.shape[ax], interval, stride)
    idx = [slice(None)] * arr.ndim
    idx[ax] = mask
    deltas[tuple(idx)] = arr[tuple(idx)]
    return deltas


def reconstruct_from_keyframes(
    deltas: np.ndarray,
    interval: Optional[int] = None,
    axis: str = "x",
    stride: int = 1,
) -> np.ndarray:
    """Exact inverse of :func:`keyframe_deltas`: segmented reconstruction.

    Each anchor restarts its chain's prefix sum, so the cascaded adders
    only ever accumulate at most ``interval`` consecutive deltas — which
    is precisely why a corrupted delta damages at most ``interval`` values
    instead of the rest of the row.
    """
    check_axis("axis", axis)
    arr = np.asarray(deltas, dtype=np.int64)
    if interval is None:
        return reconstruct_from_deltas(arr, axis=axis, stride=stride)
    if interval < 1:
        raise ValueError(f"interval must be >= 1 or None, got {interval}")
    check_positive("stride", stride)
    if arr.ndim < 2:
        raise ValueError(f"deltas must have >= 2 dims (H, W), got shape {arr.shape}")
    ax = arr.ndim - 1 if axis == "x" else arr.ndim - 2
    n = arr.shape[ax]
    out = arr.copy()
    if n == 0 or interval == 1:
        return out
    # Chains are the stride phases; segments are `interval` chain steps.
    for phase in range(min(stride, n)):
        chain = [slice(None)] * arr.ndim
        chain[ax] = slice(phase, None, stride)
        sub = out[tuple(chain)]
        m = sub.shape[ax]
        for seg_start in range(0, m, interval):
            seg = [slice(None)] * arr.ndim
            seg[ax] = slice(seg_start, min(seg_start + interval, m))
            sub[tuple(seg)] = np.cumsum(sub[tuple(seg)], axis=ax)
    return out

