"""Maps at their true width: int16 traces give the int64 answers.

Traces store their maps as ``int16`` and the kernels that read them keep
that dtype, widening only where the arithmetic needs more bits.  Every
kernel must therefore give the same result on an int16 map as on its
int64 widening, including at the extremes -32768 and 32767 (whose
differences need 17 bits and whose magnitudes do not fit int16).  Float
maps are rejected at every entry point instead of being truncated.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.potential import potential_speedups
from repro.analysis.spatial import heatmap_data
from repro.arch.term_maps import delta_term_map, raw_term_map, vp_term_map
from repro.compression.schemes import SCHEMES, planar_order, storage_order
from repro.core.booth import booth_terms
from repro.core.deltas import spatial_deltas
from repro.core.precision import group_precisions
from repro.nn.fixed_point import narrowest_copy, quantize
from repro.nn.trace import ActivationTrace, ConvLayerTrace
from repro.utils import timing
from repro.utils.validation import check_integer_array

EXTREMES = (-(2**15), 2**15 - 1, 0)
CLIPS = "precision.values_clipped"


@st.composite
def int16_maps(draw) -> np.ndarray:
    """A (C, H, W) int16 map with -32768, 32767 and 0 at drawn positions."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(2, 7)))
    values = st.one_of(st.sampled_from(EXTREMES), st.integers(-(2**15), 2**15 - 1))
    fmap = draw(hnp.arrays(np.int16, shape, elements=values))
    at = draw(st.lists(st.integers(0, fmap.size - 1), min_size=3, max_size=3, unique=True))
    fmap.reshape(-1)[at] = EXTREMES
    return fmap


def _layer(imap: np.ndarray, stride: int, omap=None) -> ConvLayerTrace:
    """A 3x3, pad-1 layer over ``imap``; ``omap`` defaults to zeros."""
    _, h, w = imap.shape
    if omap is None:
        omap = np.zeros((2, (h - 1) // stride + 1, (w - 1) // stride + 1), imap.dtype)
    return ConvLayerTrace(
        name="probe",
        index=0,
        imap=imap,
        imap_scale=0,
        omap=omap,
        omap_scale=0,
        out_channels=omap.shape[0],
        kernel=3,
        stride=stride,
        padding=1,
        dilation=1,
        relu=True,
    )


def _clipped(compute):
    """``compute()`` and the ``precision.values_clipped`` count it added."""
    before = timing.counter_values(CLIPS).get(CLIPS, 0)
    out = compute()
    return out, timing.counter_values(CLIPS).get(CLIPS, 0) - before


def _same_encoding(a, b) -> bool:
    return (
        np.array_equal(a.precisions, b.precisions)
        and (a.group_size, a.values, a.signed) == (b.group_size, b.values, b.signed)
    )


class TestInt16EqualsInt64:
    @given(int16_maps(), st.sampled_from(["x", "y"]), st.integers(1, 3))
    # Every delta of this row saturates: the clip counts must agree too.
    @example(np.array([[[-(2**15), 2**15 - 1, -(2**15)]]], dtype=np.int16), "x", 1)
    @settings(max_examples=60, deadline=None)
    def test_every_kernel(self, narrow, axis, stride):
        wide = narrow.astype(np.int64)

        assert np.array_equal(booth_terms(narrow), booth_terms(wide))
        assert np.array_equal(booth_terms(narrow, "naf"), booth_terms(wide, "naf"))

        deltas = spatial_deltas(narrow, axis=axis, stride=stride)
        assert deltas.dtype == np.int32
        assert np.array_equal(deltas, spatial_deltas(wide, axis=axis, stride=stride))

        assert _same_encoding(
            group_precisions(narrow, 16, signed=True),
            group_precisions(wide, 16, signed=True),
        )
        nonneg = np.maximum(narrow, 0)
        assert _same_encoding(
            group_precisions(nonneg, 8, signed=False),
            group_precisions(nonneg.astype(np.int64), 8, signed=False),
        )
        assert _same_encoding(
            group_precisions(deltas, 16, signed=True),
            group_precisions(deltas.astype(np.int64), 16, signed=True),
        )

        for name, scheme in SCHEMES.items():
            assert scheme.encoded_bits(narrow, 12) == scheme.encoded_bits(wide, 12), name

        lo, hi = _layer(narrow, stride), _layer(wide, stride)
        assert lo.imap.dtype == np.int16 and hi.imap.dtype == np.int64
        assert np.array_equal(raw_term_map(lo), raw_term_map(hi))
        narrow_delta, narrow_clips = _clipped(lambda: delta_term_map(lo, axis))
        wide_delta, wide_clips = _clipped(lambda: delta_term_map(hi, axis))
        assert np.array_equal(narrow_delta, wide_delta)
        assert narrow_clips == wide_clips
        for threshold, recovery in ((0, 0), (3, 2)):
            assert np.array_equal(
                vp_term_map(lo, threshold, recovery, axis),
                vp_term_map(hi, threshold, recovery, axis),
            )

        a, b = heatmap_data(lo, axis), heatmap_data(hi, axis)
        for field in ("raw", "delta", "term_reduction", "mean_terms_raw", "mean_terms_delta"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

        def trace(layer):
            return ActivationTrace("probe", layer.imap_shape, 0, [layer])

        assert potential_speedups([trace(lo)], axis) == potential_speedups([trace(hi)], axis)

    def test_heatmap_magnitude_of_int16_minimum(self):
        fmap = np.full((1, 2, 2), -(2**15), dtype=np.int16)
        assert heatmap_data(_layer(fmap, 1)).raw.tolist() == [[32768.0] * 2] * 2


class TestFloatMapsRejected:
    """A float map would be truncated (1.7 priced as 1); it fails instead."""

    FLOATS = np.array([[[1.7, 3.9], [0.2, 2.5]]])

    def test_helper(self):
        with pytest.raises(ValueError, match="fmap must have"):
            check_integer_array("fmap", self.FLOATS)
        flags = check_integer_array("fmap", np.array([True, False]))
        assert flags.dtype == np.uint8 and flags.tolist() == [1, 0]
        ints = np.arange(4, dtype=np.int16)
        assert check_integer_array("fmap", ints) is ints

    def test_booth_terms(self):
        with pytest.raises(ValueError, match="values must have"):
            booth_terms(np.array([1.7, 3.9]))

    def test_spatial_deltas(self):
        with pytest.raises(ValueError, match="fmap must have"):
            spatial_deltas(self.FLOATS)

    def test_group_precisions(self):
        with pytest.raises(ValueError, match="values must have"):
            group_precisions(self.FLOATS.reshape(-1))

    def test_storage_orders(self):
        for order in (storage_order, planar_order):
            with pytest.raises(ValueError, match="fmap must have"):
                order(self.FLOATS)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_every_scheme(self, name):
        with pytest.raises(ValueError, match="fmap must have"):
            SCHEMES[name].encoded_bits(self.FLOATS)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_bool_maps_price_as_zeros_and_ones(self, name):
        flags = np.array([[[True, False, True], [False, False, True]]])
        scheme = SCHEMES[name]
        assert scheme.encoded_bits(flags) == scheme.encoded_bits(flags.astype(np.int64))


class TestNarrowestCopy:
    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([-(2**15), 0, 2**15 - 1], np.int16),
            ([2**15], np.int32),
            ([-(2**15) - 1], np.int32),
            ([2**31], np.int64),
            ([], np.int16),
        ],
    )
    def test_dtype_and_values(self, values, dtype):
        src = np.array(values, dtype=np.int64)
        out = narrowest_copy(src)
        assert out.dtype == dtype
        assert np.array_equal(out, src)
        assert not np.shares_memory(out, src)


class TestReadOnlySharedMaps:
    def _pair(self):
        shared = np.arange(2 * 3 * 3, dtype=np.int16).reshape(2, 3, 3)
        first = _layer(np.zeros((1, 3, 3), dtype=np.int16), 1, omap=shared)
        return first, _layer(shared, 1)

    def test_maps_read_only_at_construction(self):
        first, second = self._pair()
        for arr in (first.imap, first.omap, second.imap, second.omap):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1

    def test_pickle_keeps_sharing_and_read_only(self):
        trace = ActivationTrace("probe", (1, 3, 3), 0, list(self._pair()))
        loaded = pickle.loads(pickle.dumps(trace, protocol=4))
        assert loaded[0].omap is loaded[1].imap
        assert np.array_equal(loaded[1].imap, trace[1].imap)
        for layer in loaded:
            assert not layer.imap.flags.writeable
            assert not layer.omap.flags.writeable

    def test_tiny_network_trace(self, tiny_network):
        net, imgs = tiny_network
        trace = net.trace(imgs[0])
        assert all(layer.imap.dtype == np.int16 for layer in trace)
        assert all(layer.omap.dtype == np.int16 for layer in trace)
        for prev, layer in zip(trace.layers, trace.layers[1:]):
            assert prev.omap is layer.imap
        out, _ = net.forward_int(quantize(imgs[0], trace.input_scale))
        assert np.array_equal(trace[-1].omap, out)
