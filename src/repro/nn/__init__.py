"""Fixed-point CNN inference substrate.

The Diffy accelerator operates on 16-bit fixed-point activation streams.
This subpackage provides everything needed to *generate* those streams
without an external deep-learning framework:

- :mod:`repro.nn.fixed_point` — 16-bit fixed-point quantization,
- :mod:`repro.nn.functional`  — exact integer convolution and resampling,
- :mod:`repro.nn.layers`      — layer objects (Conv2d, pooling, reshuffles),
- :mod:`repro.nn.network`     — sequential networks with float calibration
  followed by bit-exact integer inference,
- :mod:`repro.nn.trace`       — per-layer activation traces consumed by the
  accelerator models in :mod:`repro.arch`.

Inference runs in two phases, mirroring how a deployment toolchain targets
an accelerator such as Diffy: a float *calibration* pass picks per-layer
output scales, then the *integer* pass performs exact 16-bit fixed point
arithmetic so that every downstream measurement (Booth term counts, dynamic
precisions, delta statistics) is a bit-exact property of the value stream.
"""

from repro.nn.fixed_point import INPUT_SCALE, ACT_BITS
from repro.nn.functional import (
    conv2d_int,
    conv2d_float,
    space_to_depth,
    depth_to_space,
    upsample_nearest,
    max_pool2d,
)
from repro.nn.layers import (
    Layer,
    Conv2d,
    MaxPool2d,
    SpaceToDepth,
    DepthToSpace,
    UpsampleNearest,
    AppendConstantChannels,
    GlobalResidualAdd,
)
from repro.nn.network import Network
from repro.nn.trace import ActivationTrace, ConvLayerTrace

__all__ = [
    "INPUT_SCALE",
    "ACT_BITS",
    "conv2d_int",
    "conv2d_float",
    "space_to_depth",
    "depth_to_space",
    "upsample_nearest",
    "max_pool2d",
    "Layer",
    "Conv2d",
    "MaxPool2d",
    "SpaceToDepth",
    "DepthToSpace",
    "UpsampleNearest",
    "AppendConstantChannels",
    "GlobalResidualAdd",
    "Network",
    "ActivationTrace",
    "ConvLayerTrace",
]
