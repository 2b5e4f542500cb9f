"""The out-of-place image and clip synthesizer.

``repro.data.synthesis.synthesize_image`` allocates each full-size array
once and changes it in place: one amplitude buffer, one complex spectrum
inverted in ``irfft2``'s two stages, one luma accumulator, and a
``(C, H, W)`` output each chroma plane is written straight into.
:func:`synthesize_image` here is the version it replaced, where every
step (``radius``, ``amplitude``, ``spectrum``, each ``luma + ...``, the
stacked planes, the noisy copy) is written out of place.  Both take the
same RNG draws in the same order, so they must agree byte for byte.
:func:`synthesize_clip` is the matching out-of-place clip builder.

Production draws each disc on its bounding box; :func:`_geometric_shapes`
here tests every pixel of the frame against every disc.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.data.synthesis import PROFILES, ImageProfile
from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import check_positive


def _power_law_cloud(rng: np.random.Generator, h: int, w: int, beta: float = 2.0) -> np.ndarray:
    """Random field with an isotropic 1/f^beta amplitude spectrum in [0,1]."""
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = 1.0  # keep DC finite; we normalize afterwards anyway
    amplitude = radius ** (-beta / 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi, amplitude.shape)
    spectrum = amplitude * np.exp(1j * phase)
    field = np.fft.irfft2(spectrum, s=(h, w))
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        return np.zeros((h, w))
    return (field - lo) / (hi - lo)


def _piecewise_regions(rng: np.random.Generator, h: int, w: int, levels: int = 7) -> np.ndarray:
    """Piecewise-constant field: a smooth cloud quantized to a few levels."""
    base = _power_law_cloud(rng, h, w, beta=2.5)
    quantized = np.floor(base * levels) / max(levels - 1, 1)
    return np.clip(quantized, 0.0, 1.0)


def _geometric_shapes(rng: np.random.Generator, h: int, w: int, count: int) -> np.ndarray:
    """Overlay of constant-intensity rectangles and discs (man-made edges)."""
    canvas = np.zeros((h, w))
    for _ in range(count):
        value = rng.uniform(-0.5, 0.5)
        if rng.random() < 0.7:
            rh = int(rng.uniform(0.03, 0.3) * h) + 1
            rw = int(rng.uniform(0.03, 0.3) * w) + 1
            y0 = rng.integers(0, max(h - rh, 1))
            x0 = rng.integers(0, max(w - rw, 1))
            canvas[y0 : y0 + rh, x0 : x0 + rw] = value
        else:
            r = rng.uniform(0.02, 0.15) * min(h, w)
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            yy, xx = np.ogrid[:h, :w]
            canvas[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = value
    return canvas


def synthesize_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    profile: ImageProfile | str = "nature",
    channels: int = 3,
) -> np.ndarray:
    """Synthesize one (channels, height, width) float image in [0, 1]."""
    check_positive("height", height)
    check_positive("width", width)
    check_positive("channels", channels)
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
            ) from None

    megapixels = height * width / 1e6
    shape_count = max(1, int(round(profile.shapes * max(megapixels, 0.05))))

    luma = profile.cloud * _power_law_cloud(rng, height, width)
    luma = luma + profile.regions * _piecewise_regions(rng, height, width)
    luma = luma + _geometric_shapes(rng, height, width, shape_count)
    if profile.detail > 0:
        luma = luma + profile.detail * rng.standard_normal((height, width))

    sigma = profile.smoothness * height / 1080.0
    if sigma > 0.05:
        luma = ndimage.gaussian_filter(luma, sigma=sigma)

    lo, hi = luma.min(), luma.max()
    luma = (luma - lo) / max(hi - lo, 1e-12)

    planes = []
    for _ in range(channels):
        chroma = 0.12 * _power_law_cloud(rng, height, width, beta=2.5) - 0.06
        planes.append(luma + chroma)
    image = np.stack(planes, axis=0)

    if profile.noise_sigma > 0:
        image = image + rng.normal(0.0, profile.noise_sigma, image.shape)

    return np.clip(image, 0.0, 1.0)


def synthesize_clip(
    frames: int,
    height: int,
    width: int,
    profile: str = "nature",
    pan_px: int = 2,
    noise_sigma: float = 0.002,
    max_scene_width: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> list[np.ndarray]:
    """``frames`` consecutive (3, height, width) frames panning over one scene."""
    check_positive("frames", frames)
    check_positive("height", height)
    check_positive("width", width)
    if pan_px < 0:
        raise ValueError(f"pan_px must be >= 0, got {pan_px}")
    if max_scene_width is not None and max_scene_width < width:
        raise ValueError(f"max_scene_width must be >= width ({width}), got {max_scene_width}")
    rng = rng_for(seed, "clip", profile, frames, height, width, pan_px)
    scene_w = width + pan_px * (frames - 1)
    if max_scene_width is not None:
        scene_w = min(scene_w, max_scene_width)
    scene = synthesize_image(rng, height, scene_w, profile)
    max_x0 = scene_w - width
    clip = []
    for i in range(frames):
        x0 = min(i * pan_px, max_x0)
        frame = scene[:, :, x0 : x0 + width].copy()
        if noise_sigma > 0:
            frame = frame + rng.normal(0.0, noise_sigma, frame.shape)
        clip.append(np.clip(frame, 0.0, 1.0))
    return clip
