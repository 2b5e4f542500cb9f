"""Spatial delta transform of feature maps, and its exact inverse.

Diffy's Delta_out engine writes each layer's output feature map to the
activation memory as *deltas*: each value is replaced by its difference
from the adjacent value (along the X axis by default, matching the paper's
dataflow), at the stride of the *next* layer's windows (Section III-E).
The first value of each row has no left neighbour and is stored raw.

Because the transform is an exact integer prefix-difference, the original
map is recovered by an exact prefix sum — which is what the per-SIP
Differential Reconstruction engines do in hardware.

Note on ranges: the difference of two 16-bit values needs up to 17 bits in
the worst case.  Real feature maps are post-ReLU (non-negative), so their
deltas always fit 16 bits; :func:`spatial_deltas` returns ``int32`` for
8/16-bit maps (``int64`` for wider ones), :func:`reconstruct_from_deltas`
returns ``int64``, and both leave range policy to the caller.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_axis, check_integer_array, check_positive


def spatial_deltas(fmap: np.ndarray, axis: str = "x", stride: int = 1) -> np.ndarray:
    """Delta-encode a (..., H, W) integer feature map along a spatial axis.

    ``out[..., x] = fmap[..., x] - fmap[..., x - stride]`` for
    ``x >= stride``; the first ``stride`` positions along the axis keep
    their raw values (they start each differential chain).

    Parameters
    ----------
    fmap:
        Integer array whose last two axes are (H, W).
    axis:
        ``"x"`` (width, the paper's choice) or ``"y"`` (height; Section
        III-C notes the method applies along either dimension).
    stride:
        Window stride of the consumer layer; deltas are taken between
        activations ``stride`` apart so that differential windows line up.
    """
    check_axis("axis", axis)
    check_positive("stride", stride)
    arr = check_integer_array("fmap", fmap)
    if arr.ndim < 2:
        raise ValueError(f"fmap must have >= 2 dims (H, W), got shape {arr.shape}")
    # A difference of two n-bit values needs n + 1 bits: 8- and 16-bit
    # maps difference in int32, anything wider in int64.
    wide = np.int32 if arr.itemsize <= 2 else np.int64
    ax = arr.ndim - 1 if axis == "x" else arr.ndim - 2
    out = np.empty(arr.shape, dtype=wide)
    lead = [slice(None)] * arr.ndim
    first, tail, head = lead.copy(), lead.copy(), lead.copy()
    first[ax] = slice(0, stride)
    tail[ax] = slice(stride, None)
    head[ax] = slice(None, -stride if arr.shape[ax] > stride else 0)
    out[tuple(first)] = arr[tuple(first)]
    np.subtract(arr[tuple(tail)], arr[tuple(head)], out=out[tuple(tail)], dtype=wide)
    return out


def reconstruct_from_deltas(
    deltas: np.ndarray, axis: str = "x", stride: int = 1
) -> np.ndarray:
    """Exact inverse of :func:`spatial_deltas`.

    Performs the cascaded reconstruction that Diffy's DR engines implement:
    every value becomes the sum of all deltas in its chain plus the chain's
    raw head value.
    """
    check_axis("axis", axis)
    check_positive("stride", stride)
    arr = np.asarray(deltas, dtype=np.int64)
    if arr.ndim < 2:
        raise ValueError(f"deltas must have >= 2 dims (H, W), got shape {arr.shape}")
    ax = arr.ndim - 1 if axis == "x" else arr.ndim - 2
    n = arr.shape[ax]
    if n == 0:
        return arr.copy()
    out = arr.copy()
    if stride == 1:
        return np.cumsum(out, axis=ax)
    # Values stride apart form independent chains; prefix-sum each phase.
    for phase in range(min(stride, n)):
        idx = [slice(None)] * arr.ndim
        idx[ax] = slice(phase, None, stride)
        out[tuple(idx)] = np.cumsum(arr[tuple(idx)], axis=ax)
    return out

