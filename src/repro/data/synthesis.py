"""Procedural natural-image synthesis.

Natural images have three statistical properties that drive every result in
the Diffy paper:

1. a roughly 1/f^2 power spectrum (large smooth areas, strong spatial
   correlation between adjacent pixels),
2. piecewise-smooth structure — object interiors are nearly constant while
   object boundaries produce sharp, sparse edges (Fig 2: "deltas peak only
   around the edges"),
3. moderate sensor noise for real captures (the RNI15 dataset).

The synthesizer composes these ingredients.  Each *profile* (nature, city,
texture, noisy) weights them differently, mirroring the paper's HD33
description of "nature, city and texture scenes".

scipy serves only the Gaussian blur here, so :func:`synthesize_image`
imports it when called rather than at module level: ``import repro``
reaches this module, and a process that reads its images, models and
traces from the cache never synthesizes one, so it should not pay
scipy's start-up time and memory.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields

import numpy as np

from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import check_finite_nonnegative, check_integer, check_positive


@dataclass(frozen=True)
class ImageProfile:
    """Weights of the synthesis ingredients for one scene type.

    Attributes
    ----------
    cloud:
        Weight of the 1/f^2 spectrum component (smooth intensity fields).
    regions:
        Weight of the piecewise-constant region component (flat areas with
        sharp boundaries).
    shapes:
        Number of constant-colour geometric shapes per megapixel (buildings,
        signs — dominant in "city" scenes).
    detail:
        Weight of a high-frequency texture component.
    noise_sigma:
        Additive Gaussian sensor-noise standard deviation (intensity units,
        image range is [0, 1]).
    smoothness:
        Gaussian blur radius applied to the composite, *per 1080 rows* of
        nominal scene height.  Higher resolutions of the same scene are
        smoother per-pixel, which is exactly why HD inputs show the
        strongest spatial correlation.
    """

    cloud: float = 1.0
    regions: float = 0.6
    shapes: float = 12.0
    detail: float = 0.08
    noise_sigma: float = 0.0
    smoothness: float = 1.6

    def __post_init__(self) -> None:
        for f in fields(self):
            check_finite_nonnegative(f.name, getattr(self, f.name))


#: Scene profiles referenced by the Table II dataset definitions.
PROFILES: dict[str, ImageProfile] = {
    "nature": ImageProfile(cloud=1.0, regions=0.55, shapes=4.0, detail=0.10),
    "city": ImageProfile(cloud=0.6, regions=0.8, shapes=40.0, detail=0.06),
    "texture": ImageProfile(cloud=0.5, regions=0.3, shapes=6.0, detail=0.30),
    "noisy": ImageProfile(cloud=1.0, regions=0.6, shapes=8.0, detail=0.10, noise_sigma=0.04),
    "portrait": ImageProfile(cloud=1.1, regions=0.7, shapes=3.0, detail=0.05),
}


def _power_law_cloud(rng: np.random.Generator, h: int, w: int, beta: float = 2.0) -> np.ndarray:
    """Random field with an isotropic 1/f^beta amplitude spectrum in [0,1].

    Each full-size array is allocated once and changed in place, and the
    inverse transform runs ``irfft2``'s own two stages so the complex
    half-spectrum is freed before the real field is normalized.
    """
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    amplitude = fy * fy + fx * fx
    np.sqrt(amplitude, out=amplitude)
    amplitude[0, 0] = 1.0  # keep DC finite; we normalize afterwards anyway
    amplitude **= -beta / 2.0
    spectrum = 1j * rng.uniform(0.0, 2.0 * np.pi, amplitude.shape)
    np.exp(spectrum, out=spectrum)
    spectrum *= amplitude
    del amplitude
    spectrum = np.fft.ifft(spectrum, n=h, axis=0)
    field = np.fft.irfft(spectrum, n=w, axis=1)
    del spectrum
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        field.fill(0.0)
        return field
    field -= lo
    field /= hi - lo
    return field


def _piecewise_regions(rng: np.random.Generator, h: int, w: int, levels: int = 7) -> np.ndarray:
    """Piecewise-constant field: a smooth cloud quantized to a few levels.

    The level sets of a smooth random field give organically shaped regions
    (like objects / sky / ground) with perfectly flat interiors and sharp
    boundaries.
    """
    field = _power_law_cloud(rng, h, w, beta=2.5)
    field *= levels
    np.floor(field, out=field)
    field /= max(levels - 1, 1)
    return np.clip(field, 0.0, 1.0, out=field)


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
            # Only pixels within r of the centre pass the test, so it runs
            # on the disc's bounding box (a pixel wider on each side).
            y0, y1 = max(int(cy - r) - 1, 0), min(int(cy + r) + 2, h)
            x0, x1 = max(int(cx - r) - 1, 0), min(int(cx + r) + 2, w)
            yy, xx = np.ogrid[y0:y1, x0:x1]
            box = canvas[y0:y1, x0:x1]
            box[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = value
    return canvas


def synthesize_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    profile: ImageProfile | str = "nature",
    channels: int = 3,
) -> np.ndarray:
    """Synthesize one (channels, height, width) float image in [0, 1].

    Channels share a common luminance structure with small chroma
    perturbations, matching the strong cross-channel correlation of RGB
    photographs.
    """
    for name, value in (("height", height), ("width", width), ("channels", channels)):
        check_positive(name, check_integer(name, value))
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
            ) from None

    megapixels = height * width / 1e6
    shape_count = max(1, int(round(profile.shapes * max(megapixels, 0.05))))

    luma = _power_law_cloud(rng, height, width)
    luma *= profile.cloud
    layer = _piecewise_regions(rng, height, width)
    layer *= profile.regions
    luma += layer
    luma += _geometric_shapes(rng, height, width, shape_count)
    if profile.detail > 0:
        rng.standard_normal(out=layer)  # the regions buffer, reused
        layer *= profile.detail
        luma += layer
    del layer

    sigma = profile.smoothness * height / 1080.0
    if sigma > 0.05:
        from scipy import ndimage

        ndimage.gaussian_filter(luma, sigma=sigma, output=luma)

    lo, hi = luma.min(), luma.max()
    luma -= lo
    luma /= max(hi - lo, 1e-12)

    image = np.empty((channels, height, width))
    for plane in image:  # each plane is luma plus its own chroma cloud
        np.multiply(_power_law_cloud(rng, height, width, beta=2.5), 0.12, out=plane)
        plane -= 0.06
        plane += luma
    del luma

    if profile.noise_sigma > 0:
        image += rng.normal(0.0, profile.noise_sigma, image.shape)
    return np.clip(image, 0.0, 1.0, out=image)


# ---- input drift schedules (the calibration loop's disturbance) ---------


@dataclass(frozen=True)
class DriftPhase:
    """One segment of a drift timeline.

    The phase starts at ``start_s`` with gain ``gain0``, ramps linearly
    to ``gain1`` over ``ramp_s`` seconds (a brightness/contrast ramp),
    then holds ``gain1`` until the next phase.  ``profile`` names the
    scene statistics in force (a distribution shift switches it).
    """

    start_s: float
    gain0: float
    gain1: float
    ramp_s: float
    profile: str

    def gain_at(self, t: float) -> float:
        if self.ramp_s <= 0.0 or t >= self.start_s + self.ramp_s:
            return self.gain1
        if t <= self.start_s:
            return self.gain0
        frac = (t - self.start_s) / self.ramp_s
        return self.gain0 + (self.gain1 - self.gain0) * frac


@dataclass(frozen=True)
class DriftSchedule:
    """A deterministic input-drift timeline for one serving run.

    Two disturbance axes, matching what the calibration control loop
    (:mod:`repro.calib`) must survive:

    - **gain drift** — a multiplicative activation-magnitude gain
      (brightness/contrast), piecewise-linear in time;
    - **distribution shift** — the scene profile
      (:data:`repro.data.synthesis.PROFILES`) in force at each time.

    Both are pure functions of time, so any worker serving any request
    substream observes the identical drift — the schedule never needs to
    travel with the requests.
    """

    duration_s: float
    phases: "tuple[DriftPhase, ...]"

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        if not self.phases:
            raise ValueError("a drift schedule needs at least one phase")
        starts = [p.start_s for p in self.phases]
        if starts[0] != 0.0:
            raise ValueError("the first drift phase must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("drift phases must have strictly increasing starts")
        object.__setattr__(self, "_starts", starts)

    def _phase(self, t: float) -> DriftPhase:
        return self.phases[max(0, bisect.bisect_right(self._starts, t) - 1)]

    def gain(self, t: float) -> float:
        """Activation-magnitude gain in force at time ``t``."""
        return self._phase(t).gain_at(t)

    def profile(self, t: float) -> str:
        """Scene-profile name in force at time ``t``."""
        return self._phase(t).profile

    @property
    def is_static(self) -> bool:
        """True when the schedule never leaves gain 1.0 / the base profile."""
        base = self.phases[0].profile
        return all(
            p.gain0 == 1.0 and p.gain1 == 1.0 and p.profile == base for p in self.phases
        )


#: A drift schedule starts on the base profile; each event switches to a
#: shift profile with :data:`PROFILE_SHIFT_PROBABILITY` and ramps its gain
#: over :data:`RAMP_FRACTION` of its slot.
DRIFT_BASE_PROFILE = "nature"
DRIFT_SHIFT_PROFILES = ("city", "noisy")
PROFILE_SHIFT_PROBABILITY = 0.5
RAMP_FRACTION = 0.25


def generate_drift_schedule(
    duration_s: float,
    magnitude: float,
    events: int = 2,
    seed: int = DEFAULT_SEED,
) -> DriftSchedule:
    """Seeded drift timeline: gain ramps plus scene-distribution shifts.

    ``events`` drift events are spread over jittered, evenly-sized slots
    of the window.  Each event ramps the gain to a fresh target whose
    log-magnitude is drawn uniformly in the *upper half* of
    ``[0, log(magnitude)]`` with a random sign — every event is a real
    excursion (brightness up or down), never a near-identity wiggle —
    over :data:`RAMP_FRACTION` of its slot, and with
    :data:`PROFILE_SHIFT_PROBABILITY` also switches the scene profile.
    ``magnitude=1.0`` yields the identity schedule (gain
    pinned at 1.0, base profile throughout) — the no-drift control every
    false-positive property is checked against.  Pure function of its
    arguments.
    """
    check_positive("duration_s", duration_s)
    if magnitude < 1.0:
        raise ValueError(f"magnitude must be >= 1 (1 = no drift), got {magnitude}")
    check_positive("events", events)
    phases = [DriftPhase(0.0, 1.0, 1.0, 0.0, DRIFT_BASE_PROFILE)]
    if magnitude == 1.0:
        return DriftSchedule(duration_s, tuple(phases))
    rng = rng_for(seed, "drift-schedule", magnitude, events)
    slot = duration_s / (events + 1)
    gain = 1.0
    profile = DRIFT_BASE_PROFILE
    log_mag = float(np.log(magnitude))
    for k in range(events):
        # Event k lands in the middle half of its slot, jittered.
        start = slot * (k + 1) + slot * float(rng.uniform(-0.25, 0.25))
        excursion = float(rng.uniform(0.5 * log_mag, log_mag))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        target = float(np.exp(sign * excursion))
        if rng.random() < PROFILE_SHIFT_PROBABILITY:
            profile = DRIFT_SHIFT_PROFILES[int(rng.integers(len(DRIFT_SHIFT_PROFILES)))]
        phases.append(DriftPhase(start, gain, target, RAMP_FRACTION * slot, profile))
        gain = target
    return DriftSchedule(duration_s, tuple(phases))
