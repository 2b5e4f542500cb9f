"""Input adapters: map an RGB image to each model's expected input.

The zoo's networks consume different input formats:

- the denoisers and classification nets take the RGB image directly,
- JointNet takes a single-channel Bayer mosaic (RGGB),
- VDSR takes a bicubically *pre-upscaled* low-resolution image (its input
  already has the target resolution but low-pass content — which is why
  its layer-1 activations are so smooth).

The VDSR upscale is the one place here that needs scipy, so
:func:`bicubic_upscaled` imports it when called: ``import repro`` reaches
this module, and a process that reads VDSR's traces from the cache never
upscales an image.
"""

from __future__ import annotations

import numpy as np


def identity(image: np.ndarray) -> np.ndarray:
    """Pass the (3, H, W) image through unchanged."""
    return image


def bayer_mosaic(image: np.ndarray) -> np.ndarray:
    """Sample a (3, H, W) image onto a (1, H, W) RGGB Bayer mosaic."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got {image.shape}")
    _, h, w = image.shape
    if h % 2 or w % 2:
        raise ValueError(f"Bayer mosaic needs even dimensions, got {(h, w)}")
    mosaic = np.empty((1, h, w), dtype=image.dtype)
    r, g, b = image
    mosaic[0, 0::2, 0::2] = r[0::2, 0::2]
    mosaic[0, 0::2, 1::2] = g[0::2, 1::2]
    mosaic[0, 1::2, 0::2] = g[1::2, 0::2]
    mosaic[0, 1::2, 1::2] = b[1::2, 1::2]
    return mosaic


def bicubic_upscaled(image: np.ndarray, factor: int = 2) -> np.ndarray:
    """Downsample by ``factor`` (box) then bicubically upscale back.

    Produces exactly the input VDSR sees: full resolution, low-resolution
    content.
    """
    if image.ndim != 3:
        raise ValueError(f"expected (C, H, W) image, got {image.shape}")
    _, h, w = image.shape
    if h % factor or w % factor:
        raise ValueError(f"dimensions {(h, w)} not divisible by factor {factor}")
    from scipy import ndimage

    low = image.reshape(image.shape[0], h // factor, factor, w // factor, factor).mean(
        axis=(2, 4)
    )
    up = np.stack(
        [ndimage.zoom(plane, factor, order=3, mode="reflect") for plane in low]
    )
    return np.clip(up, 0.0, 1.0)


_ADAPTERS = {
    "identity": identity,
    "bayer": bayer_mosaic,
    "upscaled": bicubic_upscaled,
}


def adapt_input(adapter: str, image: np.ndarray) -> np.ndarray:
    """Apply a named adapter to an RGB image."""
    try:
        fn = _ADAPTERS[adapter]
    except KeyError:
        raise ValueError(
            f"unknown input adapter {adapter!r}; available: {sorted(_ADAPTERS)}"
        ) from None
    return fn(image)
