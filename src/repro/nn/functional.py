"""Exact integer convolution and resampling primitives.

Integer convolutions here are *bit-exact* models of what VAA/PRA/Diffy
compute: 16-bit activations times 16-bit weights accumulated into a wide
accumulator.  The implementation lowers to ``float64`` matrix multiplies
for speed, which is exact as long as the accumulation stays below 2**53 —
asserted at call time (a 16x16-bit product is < 2**31, so up to 2**22
terms per output are safe; real layers have at most a few thousand).

Both convolutions share one column gather, :func:`_tap_columns`: pad
once, then copy one strided slice per filter tap into a ``(C·Hf·Wf,
Ho·Wo)`` block, and compute ``W.reshape(K, -1) @ cols``.  For
:func:`conv2d_int` the summation order is free: every product and
partial sum is an exact integer in that range.  For :func:`conv2d_float`
it is not, and the property kept is the calibrated *integer* network.
This gemm matches the window-major ``flat @ W.T`` it replaced bit for
bit on every convolution that calibrating the five CI-DNNs makes, and
every calibrated integer field of all twelve models is unchanged.  It is
not bit-identical on every shape: it differs on about a third of random
small shapes, by at most ~2e-15 relative to ``max|out|``, and on the 1x1
convolutions of NiN and FCN_Seg and AlexNet's ``conv_1``, which moves
those models' float biases by up to ~2e-11 relative.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.utils.validation import check_integer, check_nonnegative, check_positive

_EXACT_FLOAT_LIMIT = float(1 << 53)


def _check_chw(x: np.ndarray, name: str = "x") -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be a (C, H, W) array, got shape {arr.shape}")
    return arr


def _check_weights(w: np.ndarray, channels: int) -> None:
    if w.ndim != 4 or w.shape[1] != channels:
        raise ValueError(f"weights must be (K, C={channels}, Hf, Wf), got {w.shape}")


def _check_bias(bias: np.ndarray, filters: int, dtype: type) -> np.ndarray:
    """``bias`` as a (K, 1, 1) column, or a named error for a wrong length."""
    b = np.asarray(bias, dtype=dtype)
    if b.size != filters:
        raise ValueError(
            f"bias must hold one value per filter (K={filters}), got shape {b.shape}"
        )
    return b.reshape(-1, 1, 1)


def _max_magnitude(a: np.ndarray) -> int:
    """Largest ``|value|`` of an integer array, as an unbounded Python int."""
    if a.size == 0:
        return 0
    return max(abs(int(a.min())), abs(int(a.max())))


def _tap_columns(
    arr: np.ndarray,
    kernel: tuple[int, int],
    stride: int,
    padding: int,
    dilation: int,
) -> tuple[np.ndarray, int, int]:
    """The ``(C·Hf·Wf, Ho·Wo)`` float64 column block of a (C, H, W) input.

    Row ``(c, i, j)`` is tap ``(i, j)``'s strided slice of channel ``c``
    after zero padding.  Returns the block and the output size ``Ho, Wo``.
    """
    stride = check_integer("stride", stride)
    check_positive("stride", stride)
    dilation = check_integer("dilation", dilation)
    check_positive("dilation", dilation)
    padding = check_integer("padding", padding)
    check_nonnegative("padding", padding)
    if padding:
        arr = np.pad(arr, ((0, 0), (padding, padding), (padding, padding)))
    c, h, w = arr.shape
    hf, wf = kernel
    eff_h, eff_w = (hf - 1) * dilation + 1, (wf - 1) * dilation + 1
    if h < eff_h or w < eff_w:
        raise ValueError(f"input {(h, w)} too small for effective kernel ({eff_h}, {eff_w})")
    ho = (h - eff_h) // stride + 1
    wo = (w - eff_w) // stride + 1
    cols = np.empty((c, hf, wf, ho, wo), dtype=np.float64)
    for i in range(hf):
        for j in range(wf):
            y0, x0 = i * dilation, j * dilation
            cols[:, i, j] = arr[
                :,
                y0 : y0 + (ho - 1) * stride + 1 : stride,
                x0 : x0 + (wo - 1) * stride + 1 : stride,
            ]
    return cols.reshape(c * hf * wf, ho * wo), ho, wo


def conv2d_float(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Float convolution of a (C, H, W) input with (K, C, Hf, Wf) weights.

    Returns a C-contiguous ``(K, Ho, Wo)`` float64 array.  The module
    docstring says which shapes round differently from the window-major
    ``flat @ W.T`` it replaced.
    """
    arr = _check_chw(x)
    w = np.asarray(weights, dtype=np.float64)
    _check_weights(w, arr.shape[0])
    k, _, hf, wf = w.shape
    b = None if bias is None else _check_bias(bias, k, np.float64)
    cols, ho, wo = _tap_columns(arr, (hf, wf), stride, padding, dilation)
    out = (w.reshape(k, -1) @ cols).reshape(k, ho, wo)
    if b is not None:
        out += b
    return out


def conv2d_int(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Exact integer convolution (wide accumulator), returned as ``int64``.

    ``x`` and ``weights`` are integer arrays (fixed-point mantissas).  The
    result is the exact sum of products, i.e. the accumulator contents
    before any requantization.
    """
    arr = _check_chw(x)
    w = np.asarray(weights)
    if not np.issubdtype(arr.dtype, np.integer) or not np.issubdtype(w.dtype, np.integer):
        raise TypeError("conv2d_int requires integer inputs and weights")
    _check_weights(w, arr.shape[0])
    k, c, hf, wf = w.shape
    # Python ints: np.abs would wrap INT64_MIN to a negative bound.
    bound = _max_magnitude(arr) * _max_magnitude(w) * c * hf * wf
    if bound >= _EXACT_FLOAT_LIMIT:
        raise OverflowError(
            "accumulation may exceed float64 exact-integer range; "
            f"max|product| * terms = {float(bound):.3g}"
        )
    b = None if bias is None else _check_bias(bias, k, np.int64)
    cols, ho, wo = _tap_columns(arr, (hf, wf), stride, padding, dilation)
    out = w.reshape(k, -1).astype(np.float64) @ cols
    acc = out.astype(np.int64).reshape(k, ho, wo)
    if b is not None:
        acc = acc + b
    return acc


def space_to_depth(x: np.ndarray, factor: int) -> np.ndarray:
    """Rearrange (C, H, W) -> (C * factor**2, H/factor, W/factor).

    FFDNet feeds the network a 2x2 pixel-shuffled input (4 image tiles
    stacked along the channel dimension); this implements that reshuffle.
    """
    arr = _check_chw(x)
    c, h, w = arr.shape
    if h % factor or w % factor:
        raise ValueError(f"spatial dims {(h, w)} not divisible by factor {factor}")
    out = arr.reshape(c, h // factor, factor, w // factor, factor)
    out = np.transpose(out, (2, 4, 0, 1, 3))
    return out.reshape(c * factor * factor, h // factor, w // factor)


def depth_to_space(x: np.ndarray, factor: int) -> np.ndarray:
    """Inverse of :func:`space_to_depth` (a.k.a. pixel shuffle)."""
    arr = _check_chw(x)
    c, h, w = arr.shape
    if c % (factor * factor):
        raise ValueError(f"channels {c} not divisible by factor**2 = {factor * factor}")
    out = arr.reshape(factor, factor, c // (factor * factor), h, w)
    out = np.transpose(out, (2, 3, 0, 4, 1))
    return out.reshape(c // (factor * factor), h * factor, w * factor)


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upsampling of a (C, H, W) array."""
    arr = _check_chw(x)
    return np.repeat(np.repeat(arr, factor, axis=1), factor, axis=2)


def max_pool2d(x: np.ndarray, kernel: int, stride: int | None = None) -> np.ndarray:
    """Max pooling over a (C, H, W) array (valid padding)."""
    arr = _check_chw(x)
    stride = stride or kernel
    win = sliding_window_view(arr, (kernel, kernel), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    return win.max(axis=(-1, -2))
