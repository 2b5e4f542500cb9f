"""Synthetic video clips for the temporal-differential extension.

A clip is a panning crop over a larger synthetic scene plus per-frame
sensor noise: consecutive frames are therefore strongly correlated (small
global motion), exactly the regime CBInfer-style temporal processing
targets and the regime a camera pipeline actually sees.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthesis import synthesize_image
from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import (
    check_finite_nonnegative,
    check_integer,
    check_positive_integer,
)


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
    """Generate ``frames`` consecutive (3, height, width) frames.

    Parameters
    ----------
    pan_px:
        Horizontal camera pan per frame, in pixels.  0 gives a static
        scene where only sensor noise changes.  ``frames=1`` is a valid
        single-frame clip regardless of ``pan_px``.
    noise_sigma:
        Per-frame additive sensor noise (intensity units).
    max_scene_width:
        Optional cap on the backing scene's width (e.g. a memory bound
        for very long or fast pans).  When the nominal pan would step
        past it, the camera clamps at the scene's right edge and later
        frames hold still there — noise keeps changing, pan stops.
    """
    for name, value in (("frames", frames), ("height", height), ("width", width)):
        check_positive_integer(name, value)
    check_integer("pan_px", pan_px)
    if pan_px < 0:
        raise ValueError(f"pan_px must be >= 0, got {pan_px}")
    check_finite_nonnegative("noise_sigma", noise_sigma)
    if max_scene_width is not None:
        if check_integer("max_scene_width", max_scene_width) < width:
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
            frame += rng.normal(0.0, noise_sigma, frame.shape)
        clip.append(np.clip(frame, 0.0, 1.0, out=frame))
    return clip
