"""Synthetic filter-bank construction.

Real CI-DNN filters are predominantly low-pass / band-pass operators (they
reconstruct images), which is what preserves spatial correlation from layer
to layer.  A purely white random filter bank slightly whitens its input;
mixing in an explicitly smooth (binomial) component restores the image-like
character of intermediate feature maps.  The ``smoothness`` knob controls
that mix and is calibrated per model family in the registry.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d
from repro.utils.validation import check_nonnegative


def _binomial_kernel(size: int) -> np.ndarray:
    """Normalized 2D binomial (Pascal) low-pass kernel of a given size."""
    row = np.array([1.0])
    for _ in range(size - 1):
        row = np.convolve(row, [1.0, 1.0])
    k2d = np.outer(row, row)
    return k2d / k2d.sum()


#: Range each filter's removed fraction of net DC response is drawn from.
DC_SUPPRESSION = (0.7, 1.0)


def synth_filter_bank(
    rng: np.random.Generator,
    out_channels: int,
    in_channels: int,
    kernel: int,
    smoothness: float = 0.5,
    gain: float = 1.0,
) -> np.ndarray:
    """Random (K, C, k, k) filter bank with controllable low-pass bias.

    The bank is He-scaled so that, for zero-mean unit-variance inputs, the
    pre-activation variance stays roughly constant through the network —
    keeping 16-bit fixed point comfortable at any depth.

    Each filter of a spatial kernel loses a fraction of its net DC
    response, drawn uniformly from :data:`DC_SUPPRESSION`.  Trained
    image-reconstruction filters are predominantly band-pass *feature
    detectors* that retain only a small DC component: flat image regions
    then produce small, slowly-varying activations across all channels.
    That single property drives three paper observations at once — the
    heavy-tailed value distributions that make dynamic per-group
    precisions effective (Fig 14), the activation sparsity level (Fig 3),
    and the raw-vs-delta term gap Diffy converts into speedup (Fig 11).
    A purely random bank (suppression 0) is all-carrier — every random
    filter has a large weight sum — which no trained model resembles.
    """
    check_nonnegative("smoothness", smoothness)
    if smoothness > 1:
        raise ValueError(f"smoothness must be <= 1, got {smoothness}")
    white = rng.standard_normal((out_channels, in_channels, kernel, kernel))
    if kernel > 1 and smoothness > 0:
        lowpass = _binomial_kernel(kernel)
        # Per-(filter, channel) random amplitude on a shared smooth shape,
        # scaled so its elementwise variance matches the white component.
        amps = rng.standard_normal((out_channels, in_channels, 1, 1))
        smooth = amps * (lowpass / np.sqrt((lowpass**2).mean()))
        bank = (1.0 - smoothness) * white + smoothness * smooth
    else:
        bank = white
    if kernel > 1:
        suppress = rng.uniform(*DC_SUPPRESSION, (out_channels, 1, 1, 1))
        bank = bank - suppress * bank.mean(axis=(1, 2, 3), keepdims=True)
    fan_in = in_channels * kernel * kernel
    std = bank.std()
    if std < 1e-12:
        raise ValueError("degenerate filter bank (zero variance)")
    return bank * (gain / (std * np.sqrt(fan_in)))


def conv(
    rng: np.random.Generator,
    name: str,
    in_channels: int,
    out_channels: int,
    kernel: int = 3,
    stride: int = 1,
    dilation: int = 1,
    relu: bool = True,
    sparsity: float | None = None,
    smoothness: float = 0.5,
    gain: float = 1.0,
    padding: int | None = None,
) -> Conv2d:
    """Build one synthetic convolution layer.

    ``sparsity`` sets the post-ReLU zero fraction the calibration pass will
    fit the bias for (ignored for linear layers).
    """
    weights = synth_filter_bank(rng, out_channels, in_channels, kernel, smoothness, gain)
    return Conv2d(
        name,
        in_channels,
        out_channels,
        kernel,
        weights,
        stride=stride,
        padding=padding,
        dilation=dilation,
        relu=relu,
        sparsity_target=sparsity if relu else None,
    )
