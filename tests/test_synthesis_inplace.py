"""The in-place synthesizer: byte-identical, bounded in memory, strict at the boundary.

``repro.data.synthesis`` allocates each full-size array once and changes
it in place.  It must give exactly the bytes of the out-of-place version
in ``tests/oracles/synthesis.py`` (same RNG draws, same float operations,
same order), and its ``tracemalloc`` peak must stay near twice the
output: the output itself, the luma buffer and one cloud's spectrum.
Bad sizes and profile weights fail up front with a named ``ValueError``
instead of inside numpy, or silently as a noise-free image.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.synthesis import PROFILES, ImageProfile, _geometric_shapes, synthesize_image
from repro.data.video import synthesize_clip
from repro.utils.rng import rng_for
from tests.oracles import synthesis as oracle

#: Odd and even heights and widths, down to a single pixel.
SIZES = [(1, 1), (1, 6), (7, 1), (2, 3), (9, 13), (16, 24), (33, 20)]


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestByteIdentity:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_profile_and_size(self, profile, size, channels):
        h, w = size
        got = synthesize_image(rng_for(3, profile, h, w), h, w, profile, channels)
        want = oracle.synthesize_image(rng_for(3, profile, h, w), h, w, profile, channels)
        assert_same_bytes(got, want)

    @pytest.mark.parametrize(
        "profile",
        [
            ImageProfile(cloud=0.0, regions=0.0, shapes=0.0, detail=0.0, smoothness=0.0),
            ImageProfile(detail=0.0, noise_sigma=0.2, smoothness=40.0),
        ],
        ids=["all-zero", "no-detail-heavy-blur"],
    )
    def test_custom_profiles(self, profile):
        got = synthesize_image(rng_for(4, "custom"), 40, 30, profile)
        want = oracle.synthesize_image(rng_for(4, "custom"), 40, 30, profile)
        assert_same_bytes(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 70),
        w=st.integers(1, 70),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_shapes_on_bounding_boxes(self, h, w, count, seed):
        got = _geometric_shapes(rng_for(seed, "shapes"), h, w, count)
        want = oracle._geometric_shapes(rng_for(seed, "shapes"), h, w, count)
        assert_same_bytes(got, want)

    def test_hd_rows_frame(self):
        got = synthesize_image(rng_for(5, "hd"), 1080, 1024, "nature")
        want = oracle.synthesize_image(rng_for(5, "hd"), 1080, 1024, "nature")
        assert_same_bytes(got, want)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"pan_px": 0},
            {"noise_sigma": 0.0},
            {"pan_px": 0, "noise_sigma": 0.0},
            {"pan_px": 3, "max_scene_width": 45},
            {"pan_px": 5, "noise_sigma": 0.0, "max_scene_width": 40},
            {"frames": 1, "pan_px": 7},
        ],
        ids=repr,
    )
    def test_clips(self, kwargs):
        args = {"frames": 4, "height": 17, "width": 40, "seed": 9, **kwargs}
        got = synthesize_clip(**args)
        want = oracle.synthesize_clip(**args)
        assert len(got) == len(want) == args["frames"]
        for g, w in zip(got, want):
            assert_same_bytes(g, w)


class TestMemory:
    @pytest.mark.parametrize("size", [(256, 384), (540, 960)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_peak_is_near_twice_the_output(self, size):
        """Output, luma and one cloud's spectrum: 2x the (3, H, W) output.

        The out-of-place version peaks at ~3.67x.  One more (H, W) array
        live at the peak, such as a chroma cloud still held while the
        next plane's spectrum is inverted or a kept copy of luma, lifts
        it to ~2.33x.
        """
        h, w = size
        rng = rng_for(6, "memory", h, w)
        tracemalloc.start()
        try:
            image = synthesize_image(rng, h, w, "noisy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * image.nbytes, peak / image.nbytes


class TestBoundary:
    def test_stock_profiles_are_valid(self):
        for profile in PROFILES.values():
            assert dataclasses.replace(profile) == profile

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ImageProfile)])
    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_profile_fields_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            ImageProfile(**{field: value})

    def test_zero_weights_are_valid(self):
        fields = dataclasses.fields(ImageProfile)
        ImageProfile(**{f.name: 0.0 for f in fields})

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"height": 32.5}, "height"),
            ({"width": 32.0}, "width"),
            ({"channels": 2.0}, "channels"),
            ({"channels": True}, "channels"),
            ({"height": 0}, "height"),
            ({"channels": -1}, "channels"),
        ],
    )
    def test_image_sizes_and_channels(self, kwargs, name):
        args = {"height": 32, "width": 32, "channels": 3, **kwargs}
        with pytest.raises(ValueError, match=f"{name} must be"):
            synthesize_image(rng_for(0, "bad"), profile="nature", **args)

    def test_numpy_integer_sizes_pass(self):
        img = synthesize_image(rng_for(0, "np"), np.int64(8), np.int32(6), channels=np.int8(1))
        assert img.shape == (1, 8, 6)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"noise_sigma": -0.1}, "noise_sigma must be finite and >= 0"),
            ({"noise_sigma": math.nan}, "noise_sigma must be finite and >= 0"),
            ({"noise_sigma": math.inf}, "noise_sigma must be finite and >= 0"),
            ({"frames": 2.0}, "frames must be an integer"),
            ({"height": 16.5}, "height must be an integer"),
            ({"width": 0}, "width must be > 0"),
            ({"pan_px": 1.5}, "pan_px must be an integer"),
            ({"max_scene_width": 40.5}, "max_scene_width must be an integer"),
        ],
    )
    def test_clip_arguments(self, kwargs, message):
        args = {"frames": 2, "height": 16, "width": 24, **kwargs}
        with pytest.raises(ValueError, match=message):
            synthesize_clip(**args)
