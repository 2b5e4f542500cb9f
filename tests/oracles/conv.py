"""The window-major integer convolution and the two-pass calibration.

``repro.nn.functional.conv2d_int`` gathers its columns tap-major, one
strided slice per filter tap.  :func:`conv2d_int` here is the version it
replaced: the float convolution's window-major im2col gather and
``flat @ W.T`` product, cast back to ``int64``.  Both are exact while the
accumulation stays below 2**53, so they must agree bit for bit.

``Conv2d.calibrate`` convolves once per image, adding the fitted bias
and the ReLU to the pre-activation it used for the bias fit.
:func:`calibrate_two_pass` is the version it replaced: it convolves for
the quantile, then runs ``conv2d_float(x, W, bias)`` again for the
output.  Bind it as ``Conv2d.calibrate`` to calibrate a whole network
the old way.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv2d_float

#: float64 represents every integer below this exactly.
EXACT_FLOAT_LIMIT = float(1 << 53)


def conv2d_int(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Exact integer convolution through the float im2col path."""
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
