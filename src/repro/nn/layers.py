"""Layer objects for the fixed-point inference substrate.

Each layer implements two execution modes:

``forward_float``
    Used during the calibration pass.  Convolution layers additionally use
    this pass to *fit their biases* so that their post-ReLU activation
    sparsity matches a target — this is how the model zoo reproduces each
    paper network's characteristic sparsity regime (e.g. VDSR's very sparse
    intermediate layers) with synthetic weights.

``forward_int``
    Bit-exact 16-bit fixed-point inference.  Requires :meth:`quantize` to
    have been called (which freezes per-layer scales determined during
    calibration).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.fixed_point import (
    ACT_BITS,
    narrowest_copy,
    requantize_shift,
    round_half_away,
)
from repro.utils.bits import signed_range
from repro.utils.validation import (
    check_integer,
    check_nonnegative,
    check_positive,
    check_positive_integer,
)

#: Upper bound on fractional bits for weights; avoids absurd scales when a
#: synthetic filter bank happens to have tiny magnitudes.
MAX_WEIGHT_SCALE = 24


def _max_scale_for(max_abs: float, bits: int, headroom: float = 1.0) -> int:
    """Largest scale such that ``max_abs * headroom`` fits ``bits``-bit signed."""
    _, hi = signed_range(bits)
    target = max(max_abs * headroom, 1e-12)
    scale = int(np.floor(np.log2(hi / target)))
    return scale


class Layer:
    """Base class for all layers."""

    #: True for layers the accelerators execute as convolutions.
    is_conv = False

    def __init__(self, name: str):
        self.name = name

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        raise NotImplementedError

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        """Observe a float activation batch; default just forwards."""
        return self.forward_float(x)

    def quantize(self, in_scale: int) -> int:
        """Freeze fixed-point parameters; returns the layer's output scale."""
        return in_scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Conv2d(Layer):
    """2D convolution with optional fused ReLU.

    Parameters
    ----------
    name:
        Layer name (used in traces and per-layer reports).
    in_channels, out_channels, kernel:
        Filter geometry (square kernels, matching the paper's models).
    stride, padding, dilation:
        Standard convolution parameters.  IRCNN uses dilation 1-2-3-4-3-2-1,
        which the paper notes dilates a 3x3 filter up to 9x9 with zeros.
    relu:
        Whether a ReLU follows (Table I counts these separately).
    sparsity_target:
        If set and ``relu`` is true, calibration fits per-channel biases so
        that roughly this fraction of post-ReLU outputs is zero.
    weights, bias:
        Float filter bank (K, C, Hf, Wf) and per-channel bias (K,).
    """

    is_conv = True

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        weights: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: Optional[int] = None,
        dilation: int = 1,
        relu: bool = True,
        sparsity_target: Optional[float] = None,
    ):
        super().__init__(name)
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        check_positive("kernel", kernel)
        stride = check_positive_integer("stride", stride)
        dilation = check_positive_integer("dilation", dilation)
        if padding is not None:
            padding = check_integer("padding", padding)
            check_nonnegative("padding", padding)
        w = np.asarray(weights, dtype=np.float64)
        expected = (out_channels, in_channels, kernel, kernel)
        if w.shape != expected:
            raise ValueError(f"weights shape {w.shape} != expected {expected}")
        if sparsity_target is not None and not 0.0 <= sparsity_target < 1.0:
            raise ValueError(f"sparsity_target must be in [0, 1), got {sparsity_target}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        # "same" padding by default (the CI-DNNs preserve resolution).
        self.padding = padding if padding is not None else (kernel - 1) * dilation // 2
        self.dilation = dilation
        self.relu = relu
        self.sparsity_target = sparsity_target
        self.weights = w
        self.bias = (
            np.zeros(out_channels) if bias is None else np.asarray(bias, dtype=np.float64)
        )
        self._bias_fitted = bias is not None or sparsity_target is None
        self._calib_max_abs = 0.0
        #: When set (by Network.calibrate's global-format pass), overrides
        #: the per-layer optimal output scale.
        self.forced_out_scale: Optional[int] = None
        # Frozen by quantize():
        self.weight_scale: Optional[int] = None
        self.out_scale: Optional[int] = None
        self.int_weights: Optional[np.ndarray] = None
        self.int_bias: Optional[np.ndarray] = None

    # -- geometry ---------------------------------------------------------
    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        eff = (self.kernel - 1) * self.dilation + 1
        ho = (h + 2 * self.padding - eff) // self.stride + 1
        wo = (w + 2 * self.padding - eff) // self.stride + 1
        return (self.out_channels, ho, wo)

    # -- float / calibration ---------------------------------------------
    def _bias_relu(self, preact: np.ndarray) -> np.ndarray:
        """``conv2d_float``'s bias add, then the fused ReLU, in place.

        Consumes ``preact``: the result is that array, overwritten.
        """
        preact += self.bias.reshape(-1, 1, 1)
        if self.relu:
            np.maximum(preact, 0.0, out=preact)
        return preact

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return self._bias_relu(
            F.conv2d_float(x, self.weights, None, self.stride, self.padding, self.dilation)
        )

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        """Fit bias on first sight (if requested) and track output range."""
        preact = F.conv2d_float(
            x, self.weights, None, self.stride, self.padding, self.dilation
        )
        if not self._bias_fitted:
            # Per-channel bias placing the sparsity_target quantile at zero:
            # after ReLU roughly that fraction of outputs becomes zero.
            q = np.quantile(preact, self.sparsity_target, axis=(1, 2))
            self.bias = -q
            self._bias_fitted = True
        out = self._bias_relu(preact)
        out_max = float(np.max(np.abs(out))) if out.size else 0.0
        self._calib_max_abs = max(self._calib_max_abs, out_max)
        return out

    # -- integer ----------------------------------------------------------
    def quantize(self, in_scale: int) -> int:
        max_w = float(np.max(np.abs(self.weights)))
        self.weight_scale = min(_max_scale_for(max_w, ACT_BITS), MAX_WEIGHT_SCALE)
        # Stored at the datapath's 16-bit width (the scale above makes
        # every weight fit); conv2d_int widens them for the gemm.
        self.int_weights = narrowest_copy(
            round_half_away(self.weights * (1 << self.weight_scale))
        )
        acc_scale = in_scale + self.weight_scale
        self.int_bias = round_half_away(self.bias * float(2.0**acc_scale))
        if self.forced_out_scale is not None:
            out_scale = self.forced_out_scale
        else:
            # 12.5% headroom over the calibration maximum before saturation.
            out_scale = _max_scale_for(self._calib_max_abs, ACT_BITS, headroom=1.125)
        # The requantizer only shifts right; clamp so shift >= 0.
        self.out_scale = int(np.clip(out_scale, 0, acc_scale))
        return self.out_scale

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        if self.int_weights is None or self.out_scale is None:
            raise RuntimeError(f"{self.name}: quantize() must run before forward_int")
        acc = F.conv2d_int(
            x, self.int_weights, self.int_bias, self.stride, self.padding, self.dilation
        )
        shift = scale + int(self.weight_scale) - int(self.out_scale)
        out = requantize_shift(acc, shift)
        if self.relu:
            out = np.maximum(out, 0)
        return out, int(self.out_scale)


class MaxPool2d(Layer):
    """Max pooling (classification models only)."""

    def __init__(self, name: str, kernel: int, stride: Optional[int] = None):
        super().__init__(name)
        check_positive("kernel", kernel)
        self.kernel = kernel
        self.stride = stride or kernel

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        return (c, (h - self.kernel) // self.stride + 1, (w - self.kernel) // self.stride + 1)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.max_pool2d(x, self.kernel, self.stride)

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        return F.max_pool2d(x, self.kernel, self.stride), scale


class SpaceToDepth(Layer):
    """FFDNet-style input reshuffle: trade resolution for channels."""

    def __init__(self, name: str, factor: int):
        super().__init__(name)
        check_positive("factor", factor)
        self.factor = factor

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        return (c * self.factor**2, h // self.factor, w // self.factor)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.space_to_depth(x, self.factor)

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        return F.space_to_depth(x, self.factor), scale


class DepthToSpace(Layer):
    """Pixel shuffle: trade channels for resolution (FFDNet/JointNet output)."""

    def __init__(self, name: str, factor: int):
        super().__init__(name)
        check_positive("factor", factor)
        self.factor = factor

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        return (c // self.factor**2, h * self.factor, w * self.factor)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.depth_to_space(x, self.factor)

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        return F.depth_to_space(x, self.factor), scale


class UpsampleNearest(Layer):
    """Nearest-neighbour upsampling."""

    def __init__(self, name: str, factor: int):
        super().__init__(name)
        check_positive("factor", factor)
        self.factor = factor

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        return (c, h * self.factor, w * self.factor)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.upsample_nearest(x, self.factor)

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        return F.upsample_nearest(x, self.factor), scale


class AppendConstantChannels(Layer):
    """Append constant-valued channels (FFDNet's per-channel noise map)."""

    def __init__(self, name: str, count: int, value: float):
        super().__init__(name)
        check_positive("count", count)
        self.count = count
        self.value = float(value)

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        return (c + self.count, h, w)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        extra = np.full((self.count, x.shape[1], x.shape[2]), self.value)
        return np.concatenate([x, extra], axis=0)

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        val = int(round_half_away(np.array(self.value * (1 << scale))))
        extra = np.full((self.count, x.shape[1], x.shape[2]), val, dtype=np.int64)
        return np.concatenate([x, extra], axis=0), scale


class GlobalResidualAdd(Layer):
    """Add the (centre crop of the) network input to the current activation.

    DnCNN, IRCNN and VDSR are residual models: the network predicts a
    residual that is added to its input.  The add is elementwise and happens
    after the last convolution, so it does not change accelerator-visible
    statistics, but it keeps the functional output faithful.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._input_float: Optional[np.ndarray] = None
        self._input_int: Optional[np.ndarray] = None
        self._input_scale: Optional[int] = None

    def bind_input(self, x_float=None, x_int=None, scale=None) -> None:
        """Called by the network before forwarding, to expose its input."""
        if x_float is not None:
            self._input_float = x_float
        if x_int is not None:
            self._input_int = x_int
            self._input_scale = scale

    def unbind_input(self) -> None:
        """Called by the network when a pass ends, to drop its input."""
        self._input_float = None
        self._input_int = None
        self._input_scale = None

    @staticmethod
    def _center_crop(ref: np.ndarray, target_hw: tuple[int, int]) -> np.ndarray:
        h, w = ref.shape[1], ref.shape[2]
        th, tw = target_hw
        y0 = (h - th) // 2
        x0 = (w - tw) // 2
        return ref[:, y0 : y0 + th, x0 : x0 + tw]

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        return in_shape

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        if self._input_float is None:
            raise RuntimeError(f"{self.name}: bind_input was not called")
        ref = self._center_crop(self._input_float, x.shape[1:])
        if ref.shape[0] != x.shape[0]:
            raise ValueError(
                f"{self.name}: channel mismatch input={ref.shape[0]} vs x={x.shape[0]}"
            )
        return x + ref

    def forward_int(self, x: np.ndarray, scale: int) -> tuple[np.ndarray, int]:
        if self._input_int is None or self._input_scale is None:
            raise RuntimeError(f"{self.name}: bind_input was not called")
        ref = self._center_crop(self._input_int, x.shape[1:])
        # Align scales by shifting whichever operand has more fractional bits.
        out_scale = min(scale, int(self._input_scale))
        xs = requantize_shift(x, scale - out_scale)
        rs = requantize_shift(ref, int(self._input_scale) - out_scale)
        lo, hi = signed_range(ACT_BITS)
        return np.clip(xs + rs, lo, hi), out_scale
