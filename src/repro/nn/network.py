"""Sequential fixed-point networks.

A :class:`Network` is built from float-weight layers, *calibrated* on a
small set of images (which fits sparsity-controlling biases and records
activation ranges), *quantized* (freezing per-layer fixed-point scales),
and then run in exact integer mode producing :class:`ActivationTrace`
objects for the accelerator models.  A prepared network
(:func:`repro.models.registry.prepare_model`) keeps only what integer
inference reads: its float filters are released, and float passes fail
until the network is rebuilt from its seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.nn.fixed_point import ACT_BITS, INPUT_SCALE, narrowest_copy, quantize
from repro.nn.layers import Conv2d, GlobalResidualAdd, Layer, _max_scale_for
from repro.nn.trace import ActivationTrace, ConvLayerTrace

#: Safety margin (integer bits) the shared global activation format keeps
#: above the calibration maximum.
GLOBAL_FORMAT_MARGIN_BITS = 2


class Network:
    """A sequential CNN with a two-phase (calibrate, then integer) lifecycle.

    Parameters
    ----------
    name:
        Network name (e.g. ``"DnCNN"``); used throughout reports.
    layers:
        Ordered layer list.
    input_channels:
        Channels the network expects at its input.
    task:
        Free-form task tag (``"denoise"``, ``"super-resolution"``,
        ``"classify"``, ...); carried into reports.
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[Layer],
        input_channels: int,
        task: str = "ci",
    ):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.name = name
        self.layers = list(layers)
        self.input_channels = input_channels
        self.task = task
        #: The seed :func:`repro.models.registry.build_model` built it from.
        self.seed: Optional[int] = None
        self._quantized = False

    # -- introspection -----------------------------------------------------
    @property
    def conv_layers(self) -> list[Conv2d]:
        return [layer for layer in self.layers if isinstance(layer, Conv2d)]

    @property
    def num_conv_layers(self) -> int:
        return len(self.conv_layers)

    @property
    def num_relu_layers(self) -> int:
        return sum(1 for layer in self.conv_layers if layer.relu)

    @property
    def is_quantized(self) -> bool:
        return self._quantized

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        shape = in_shape
        for layer in self.layers:
            shape = layer.out_shape(shape)
        return shape

    def max_filter_bytes(self) -> int:
        """Largest single filter in bytes at 16b weights (Table I row 3)."""
        return max(
            layer.in_channels * layer.kernel**2 * 2 for layer in self.conv_layers
        )

    def max_layer_filter_bytes(self) -> int:
        """Largest per-layer total filter storage in bytes (Table I row 4)."""
        return max(
            layer.out_channels * layer.in_channels * layer.kernel**2 * 2
            for layer in self.conv_layers
        )

    def total_weight_bytes(self) -> int:
        """Total fmap storage for the whole model at 16b weights."""
        return sum(
            layer.out_channels * layer.in_channels * layer.kernel**2 * 2
            for layer in self.conv_layers
        )

    # -- lifecycle ----------------------------------------------------------
    def _check_float_weights(self) -> None:
        """Fail before any float work if the conv filters were released."""
        if any(layer.weights is None for layer in self.conv_layers):
            raise RuntimeError(
                f"{self.name}: float weights were released after calibration; "
                f"rebuild the network with build_model({self.name!r}, {self.seed})"
            )

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[0] != self.input_channels:
            raise ValueError(
                f"{self.name} expects ({self.input_channels}, H, W) input, "
                f"got shape {x.shape}"
            )

    @contextmanager
    def _residual_inputs_bound(self, x_float=None, x_int=None, scale=None):
        """Expose the input to every residual add for the length of one pass.

        The adds drop it when the pass ends, so a cached or pickled network
        never carries the last input it calibrated on or traced.
        """
        adds = [layer for layer in self.layers if isinstance(layer, GlobalResidualAdd)]
        for add in adds:
            add.bind_input(x_float=x_float, x_int=x_int, scale=scale)
        try:
            yield
        finally:
            for add in adds:
                add.unbind_input()

    def calibrate(self, images: Iterable[np.ndarray]) -> None:
        """Run the float calibration pass over ``images``.

        Fits sparsity-controlling biases (first image) and tracks per-layer
        output ranges (all images), then freezes fixed-point scales.

        All convolution outputs share one network-wide fixed-point format
        — the format a DaDianNao-style 16-bit datapath actually uses.  The
        layer with the widest dynamic range sets the scale, and narrower
        layers occupy fewer bits of the word; this is exactly what makes
        the paper's profiled per-layer precisions (Table III) land well
        below 16.
        """
        self._check_float_weights()
        count = 0
        for image in images:
            self._check_input(image)
            with self._residual_inputs_bound(x_float=image):
                x = image
                for layer in self.layers:
                    x = layer.calibrate(x)
            count += 1
        if count == 0:
            raise ValueError("calibrate() needs at least one image")
        shared = min(
            (
                _max_scale_for(layer._calib_max_abs, ACT_BITS, headroom=1.125)
                for layer in self.conv_layers
                if layer._calib_max_abs > 0
            ),
            default=None,
        )
        if shared is not None:
            # A deployment format leaves safety margin above the
            # calibration maximum (calibration set != field data); two
            # extra integer bits is the conventional choice and is what
            # leaves Table III's profiled precisions below the 16-bit
            # word even for the widest layer.
            shared -= GLOBAL_FORMAT_MARGIN_BITS
            for layer in self.conv_layers:
                layer.forced_out_scale = int(np.clip(shared, 0, 15))
        scale = INPUT_SCALE
        for layer in self.layers:
            scale = layer.quantize(scale)
        self._quantized = True

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        """Float-mode inference, before or after quantization.

        Needs the float filters, so a prepared network (whose filters were
        released after calibration) raises ``RuntimeError``; rebuild it
        with ``build_model(name, seed)`` first.
        """
        self._check_float_weights()
        self._check_input(x)
        with self._residual_inputs_bound(x_float=x):
            for layer in self.layers:
                x = layer.forward_float(x)
        return x

    def forward_int(
        self, x: np.ndarray, scale: int = INPUT_SCALE
    ) -> tuple[np.ndarray, int]:
        """Exact integer inference; returns (output, output_scale)."""
        if not self._quantized:
            raise RuntimeError(f"{self.name}: calibrate() must run before forward_int")
        self._check_input(x)
        with self._residual_inputs_bound(x_int=x, scale=scale):
            for layer in self.layers:
                x, scale = layer.forward_int(x, scale)
        return x, scale

    def trace(self, image: np.ndarray) -> ActivationTrace:
        """Quantize ``image`` at :data:`INPUT_SCALE` and run integer
        inference, recording a trace.

        Each map is stored at its true width (:func:`narrowest_copy`), and
        where one convolution feeds the next with no layer in between, the
        next imap is the same array as the previous omap.

        ``image`` is a float (C, H, W) image with values roughly in [0, 1].
        """
        if not self._quantized:
            raise RuntimeError(f"{self.name}: calibrate() must run before trace")
        self._check_input(image)
        scale = INPUT_SCALE
        x = quantize(image, scale)
        trace = ActivationTrace(
            network=self.name,
            input_shape=tuple(image.shape),  # type: ignore[arg-type]
            input_scale=scale,
        )
        conv_index = 0
        cur_scale = scale
        # The stored omap of the previous convolution while ``x`` still
        # holds its values: the next convolution's imap is that array.
        stored = None
        with self._residual_inputs_bound(x_int=x, scale=scale):
            for layer in self.layers:
                if isinstance(layer, Conv2d):
                    imap = stored if stored is not None else narrowest_copy(x)
                    out, out_scale = layer.forward_int(x, cur_scale)
                    stored = narrowest_copy(out)
                    trace.layers.append(
                        ConvLayerTrace(
                            name=layer.name,
                            index=conv_index,
                            imap=imap,
                            imap_scale=cur_scale,
                            omap=stored,
                            omap_scale=out_scale,
                            out_channels=layer.out_channels,
                            kernel=layer.kernel,
                            stride=layer.stride,
                            padding=layer.padding,
                            dilation=layer.dilation,
                            relu=layer.relu,
                        )
                    )
                    conv_index += 1
                    x, cur_scale = out, out_scale
                else:
                    x, cur_scale = layer.forward_int(x, cur_scale)
                    stored = None
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, convs={self.num_conv_layers}, "
            f"relus={self.num_relu_layers}, quantized={self._quantized})"
        )

