"""Maps at their true width: int16 traces give the int64 answers.

Traces store their maps as ``int16`` and the kernels that read them keep
that dtype, widening only where the arithmetic needs more bits.  Every
kernel must therefore give the same result on an int16 map as on its
int64 widening, including at the extremes -32768 and 32767 (whose
differences need 17 bits and whose magnitudes do not fit int16).  Float
maps are rejected at every entry point instead of being truncated.

The Booth term maps go one step narrower: a term count never exceeds 9,
so every term map is ``uint8``, and the cycle kernels that sum them must
give the same answer as on the map's int64 copy.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.potential import potential_speedups
from repro.analysis.spatial import heatmap_data
from repro.arch.config import DIFFY_CONFIG
from repro.arch.cycles import (
    lane_term_totals,
    pallet_cycles,
    serial_layer_cycles,
    step_term_maxima,
)
from repro.arch.sim import model_for
from repro.arch.term_maps import delta_term_map, padded_imap, raw_term_map, vp_term_map
from repro.compression.schemes import SCHEMES, planar_order
from repro.core import layer_memo
from repro.core.booth import booth_terms, term_count_lut
from repro.core.deltas import spatial_deltas
from repro.core.precision import group_maxima, group_precisions
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

    def test_planar_order(self):
        with pytest.raises(ValueError, match="fmap must have"):
            planar_order(self.FLOATS)

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


class TestUint8TermMaps:
    def test_booth_terms_are_uint8(self):
        for values in (np.arange(-40, 40, dtype=np.int16), np.array([7, -(2**15)])):
            assert booth_terms(values).dtype == np.uint8

    def test_memo_maps_are_uint8(self):
        layer = _layer(np.arange(2 * 5 * 6, dtype=np.int16).reshape(2, 5, 6) * 311, 1)
        assert raw_term_map(layer).dtype == np.uint8
        assert delta_term_map(layer, "x").dtype == np.uint8
        assert vp_term_map(layer, 0, 2, "x").dtype == np.uint8

    def test_vp_widens_only_past_uint8(self):
        """The costliest miss is the LUT maximum plus the recovery bubble:
        it fits uint8 up to 255 and needs uint16 one cycle later."""
        lut = term_count_lut()
        costliest = np.array(lut.argmax(), dtype=np.uint16).view(np.int16)
        layer = _layer(np.full((1, 4, 5), costliest, dtype=np.int16), 1)
        raw = raw_term_map(layer).astype(np.int64)
        deltas = spatial_deltas(padded_imap(layer))
        fits = 255 - int(lut.max())
        for recovery, dtype in ((fits, np.uint8), (fits + 1, np.uint16)):
            vp = vp_term_map(layer, 0, recovery, "x")
            want = np.where(deltas == 0, 0, raw + recovery)
            want[..., :1] = raw[..., :1]
            assert vp.dtype == dtype
            assert np.array_equal(vp, want)
            assert int(vp.max()) == int(lut.max()) + recovery

    def test_negative_recovery_fails_by_name(self):
        layer = _layer(np.ones((1, 3, 3), dtype=np.int16), 1)
        with pytest.raises(ValueError, match="recovery_cycles"):
            vp_term_map(layer, 0, -1)

    def test_heatmap_reduction_is_signed(self):
        """16384 costs one Booth term, but its delta from 5461, 10923,
        costs eight: the reduction there is -7, which a uint8 subtraction
        would wrap to 249."""
        row = np.array([5461, 16384] * 3, dtype=np.int16)
        layer = _layer(np.tile(row, (2, 3, 1)), 1)
        terms_raw = booth_terms(layer.imap).astype(np.int64)
        deltas = np.clip(spatial_deltas(layer.imap), -(2**15), 2**15 - 1)
        terms_delta = booth_terms(deltas).astype(np.int64)
        want = (terms_raw - terms_delta).astype(np.float64).mean(axis=0)
        got = heatmap_data(layer).term_reduction
        assert np.array_equal(got, want)
        assert got[:, 1::2].tolist() == [[-7.0] * 3] * 3


class TestAnalysisClipsAreCounted:
    """Fig 2's heatmaps and Fig 4's potentials saturate their deltas
    through ``quantize_to_width``, so every clip reaches the counter."""

    def test_overflowing_deltas_raise_the_counter(self):
        # Deltas along x: 65535, -65535 and 32768 all overflow int16.
        row = np.array([-(2**15), 2**15 - 1, -(2**15), 0], dtype=np.int16)
        layer = _layer(np.tile(row, (2, 3, 1)), 1)
        deltas = spatial_deltas(layer.imap)
        overflowing = int(np.count_nonzero((deltas < -(2**15)) | (deltas > 2**15 - 1)))
        assert overflowing == 2 * 3 * 3
        assert _clipped(lambda: heatmap_data(layer))[1] == overflowing
        trace = ActivationTrace("probe", layer.imap_shape, 0, [layer])
        assert _clipped(lambda: potential_speedups([trace]))[1] == overflowing


class TestGroupMaxima:
    @given(
        st.sampled_from([*range(1, 41), 256]),
        st.sampled_from([np.int16, np.int32, np.int64]),
        st.integers(0, 5),
        st.integers(0, 255),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_row_max(self, group, dtype, groups, tail, seed):
        tail %= group
        info = np.iinfo(dtype)
        rng = np.random.default_rng(seed)
        flat = rng.integers(info.min, info.max, groups * group + tail, endpoint=True, dtype=dtype)
        want = flat[: groups * group].reshape(-1, group).max(axis=1)
        if tail:
            want = np.append(want, flat[groups * group :].max())
        got = group_maxima(flat, group)
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def _uint8_map(seed: int, shape: "tuple[int, int, int]") -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 10, shape, dtype=np.uint8)


class TestKernelsReadUint8:
    """Every cycle kernel gives the same answer on a uint8 term map as on
    its int64 copy: the int16 (or, for deep or wide-kernel layers, int32)
    lane fold and the int64 totals are exact."""

    GEOMS = [(3, 1, 1, 8, 8, 16), (3, 2, 1, 4, 4, 16), (9, 1, 1, 2, 3, 4), (3, 1, 4, 2, 2, 16)]

    @pytest.mark.parametrize("geom", GEOMS)
    @pytest.mark.parametrize("kernel_fn", [lane_term_totals, step_term_maxima])
    def test_aggregates(self, geom, kernel_fn):
        kernel, stride, dilation, out_h, out_w, brick = geom
        span = (kernel - 1) * dilation + (max(out_h, out_w) - 1) * stride + 1
        narrow = _uint8_map(kernel, (37, span, span))
        got = kernel_fn(narrow, *geom)
        want = kernel_fn(narrow.astype(np.int64), *geom)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        if kernel_fn is lane_term_totals:
            bricks = -(-narrow.shape[0] // brick)
            fits_int16 = 255 * bricks * kernel**2 < 2**15
            assert got[0].dtype == (np.int16 if fits_int16 else np.int32)
        for sync in ("lane", "row", "column", "pallet"):
            assert pallet_cycles(got[0], 16, sync) == pallet_cycles(want[0], 16, sync)

    def test_maps_that_could_overflow_int32_fold_in_int64(self):
        """A VP map with a huge ``recovery_cycles`` is uint32; its lane
        and channel sums need more than 31 bits."""
        tm = np.full((32, 5, 5), 2**31, dtype=np.uint32)
        totals, total = lane_term_totals(tm, 3, 1, 1, 3, 3, 16)
        assert totals.dtype == np.int64
        assert (totals == 2 * 9 * 2**31).all()
        assert total == 16 * 9 * 2 * 9 * 2**31
        assert step_term_maxima(tm, 3, 1, 1, 3, 3, 16)[1] == total

    @pytest.mark.parametrize("sync", ["lane", "row", "column", "pallet"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_serial_layer_cycles_with_head_splice(self, sync, axis):
        layer = _layer(np.zeros((20, 9, 11), dtype=np.int16), 1)
        body, head = _uint8_map(1, (20, 11, 13)), _uint8_map(2, (20, 11, 13))
        config = dataclasses.replace(DIFFY_CONFIG, sync=sync)
        got = serial_layer_cycles(layer, body, config, head_term_map=head, axis=axis)
        wide = serial_layer_cycles(
            layer, body.astype(np.int64), config, head_term_map=head.astype(np.int64), axis=axis
        )
        mixed = serial_layer_cycles(
            layer, body, config, head_term_map=head.astype(np.int64), axis=axis
        )
        assert got == wide == mixed


class TestMemoBytes:
    def test_one_byte_per_padded_activation(self):
        """Lowering a DnCNN 48 px trace for VAA, PRA, Diffy and VP leaves
        each layer's raw, delta and VP term maps at one byte per padded
        activation, keeps no padded imap, and holds at most three bytes
        per padded activation in all.  ``padded_imap`` is called only
        after those checks, since it memoizes the padded copy."""
        from tests.conftest import small_trace

        trace = small_trace("DnCNN", crop=48)
        for engine in ("VAA", "PRA", "Diffy", "VP"):
            model = model_for(engine)
            for layer in trace:
                model.layer_cycles(layer)
        sizes = []
        for layer in trace:
            c, h, w = layer.imap_shape
            p = layer.padding
            padded = c * (h + 2 * p) * (w + 2 * p)
            sizes.append(padded)
            memo = layer_memo._MEMOS[id(layer)]
            assert ("padded",) not in memo, layer.name
            arrays = [v.nbytes for v in memo.values() if isinstance(v, np.ndarray)]
            assert sum(arrays) <= 3 * padded, layer.name
            by_kind = {}
            for key, value in memo.items():
                if key[0] in ("raw", "delta", "vp"):
                    by_kind[key[0]] = by_kind.get(key[0], 0) + value.nbytes
            assert by_kind == {"raw": padded, "delta": padded, "vp": padded}, layer.name
        assert [padded_imap(layer).size for layer in trace] == sizes
