"""The window-major convolutions and the two-pass calibration.

``repro.nn.functional`` gathers its convolution columns tap-major, one
strided slice per filter tap, and multiplies ``W @ cols``.
:func:`im2col` and :func:`conv2d_float` here are the window-major
version both convolutions replaced: every output window's patch, and
``flat @ W.T``.  :func:`conv2d_int` is that float convolution cast back
to ``int64``.  It is exact while the accumulation stays below 2**53, so
production must agree with it bit for bit; the float convolutions agree
to rounding (see the ``repro.nn.functional`` docstring).

``Conv2d.calibrate`` convolves once per image, adding the fitted bias
and the ReLU to the pre-activation it used for the bias fit.
:func:`calibrate_two_pass` is the version it replaced: it convolves for
the quantile, then runs :func:`conv2d_float` again for the output.
Bind it as ``Conv2d.calibrate`` to calibrate a whole network the old
way.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: float64 represents every integer below this exactly.
EXACT_FLOAT_LIMIT = float(1 << 53)


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Extract convolution patches from a (C, H, W) array.

    Returns an array of shape ``(Ho, Wo, C, Hf, Wf)`` where each
    ``[y, x]`` slice is the input window that produces output ``(y, x)``.
    This layout maps directly onto the paper's terminology: a *window* is
    one ``[y, x]`` patch, a *brick* is 16 consecutive channels of it.
    """
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ValueError(f"x must be a (C, H, W) array, got shape {arr.shape}")
    if padding:
        arr = np.pad(arr, ((0, 0), (padding, padding), (padding, padding)))
    eff_h = (kernel[0] - 1) * dilation + 1
    eff_w = (kernel[1] - 1) * dilation + 1
    if arr.shape[1] < eff_h or arr.shape[2] < eff_w:
        raise ValueError(f"input {arr.shape[1:]} too small for effective kernel ({eff_h}, {eff_w})")
    win = sliding_window_view(arr, (eff_h, eff_w), axis=(1, 2))
    win = win[:, ::stride, ::stride, ::dilation, ::dilation]
    # (C, Ho, Wo, Hf, Wf) -> (Ho, Wo, C, Hf, Wf)
    return np.transpose(win, (1, 2, 0, 3, 4))


def conv2d_float(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Float convolution of a (C, H, W) input with (K, C, Hf, Wf) weights."""
    arr = np.asarray(x)
    w = np.asarray(weights, dtype=np.float64)
    k, c, hf, wf = w.shape
    cols = im2col(arr.astype(np.float64), (hf, wf), stride, padding, dilation)
    ho, wo = cols.shape[:2]
    flat = cols.reshape(ho * wo, c * hf * wf)
    out = flat @ w.reshape(k, c * hf * wf).T
    out = out.T.reshape(k, ho, wo)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64).reshape(-1, 1, 1)
    return out


def conv2d_int(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Exact integer convolution through :func:`conv2d_float`."""
    arr = np.asarray(x)
    w = np.asarray(weights)
    if not np.issubdtype(arr.dtype, np.integer) or not np.issubdtype(w.dtype, np.integer):
        raise TypeError("conv2d_int requires integer inputs and weights")
    terms = w.shape[1] * w.shape[2] * w.shape[3]
    max_prod = float(np.max(np.abs(arr), initial=0)) * float(np.max(np.abs(w), initial=0))
    if max_prod * terms >= EXACT_FLOAT_LIMIT:
        raise OverflowError("accumulation may exceed float64 exact-integer range")
    out = conv2d_float(
        arr.astype(np.float64), w.astype(np.float64), None, stride, padding, dilation
    )
    acc = out.astype(np.int64)
    if bias is not None:
        acc = acc + np.asarray(bias, dtype=np.int64).reshape(-1, 1, 1)
    return acc


def calibrate_two_pass(layer, x: np.ndarray) -> np.ndarray:
    """``Conv2d.calibrate`` with a second convolution for the output."""
    if not layer._bias_fitted:
        preact = conv2d_float(x, layer.weights, None, layer.stride, layer.padding, layer.dilation)
        q = np.quantile(preact, layer.sparsity_target, axis=(1, 2))
        layer.bias = -q
        layer._bias_fitted = True
    out = conv2d_float(x, layer.weights, layer.bias, layer.stride, layer.padding, layer.dilation)
    if layer.relu:
        out = np.maximum(out, 0.0)
    out_max = float(np.max(np.abs(out))) if out.size else 0.0
    layer._calib_max_abs = max(layer._calib_max_abs, out_max)
    return out
