"""Tests for the shared cycle-counting machinery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import DIFFY_CONFIG, AcceleratorConfig
from repro.arch.cycles import (
    filter_passes,
    geometry_occupancies,
    lane_term_totals,
    pallet_cycles,
    serial_layer_cycles,
    step_term_maxima,
)
from repro.arch.term_maps import delta_term_map, raw_term_map
from repro.nn.trace import ConvLayerTrace
from tests.oracles import (
    lane_term_totals_loops,
    serial_layer_cycles_two_aggregates,
    step_term_maxima_loops,
)


def _cfg(**kw):
    base = dict(name="t", tiles=4, filters_per_tile=16, terms_per_filter=16)
    base.update(kw)
    return AcceleratorConfig(**base)


class TestFilterPasses:
    def test_fits_concurrent(self):
        assert filter_passes(64, _cfg()) == 1

    def test_multiple_passes(self):
        assert filter_passes(128, _cfg()) == 2
        assert filter_passes(65, _cfg()) == 2

    def test_small_k_still_one_pass(self):
        assert filter_passes(3, _cfg()) == 1

    def test_hybrid_splits_rows(self):
        # 3 filters -> 1 group; 4 tiles -> 4 row teams -> quarter passes.
        assert filter_passes(3, _cfg(partition="hybrid")) == pytest.approx(0.25)

    def test_hybrid_64_filters_4_tiles(self):
        # 4 groups on 4 tiles: exactly one pass, no row split.
        assert filter_passes(64, _cfg(partition="hybrid")) == pytest.approx(1.0)

    def test_hybrid_scaled_up(self):
        # 32 tiles, 4 groups -> 8 row teams.
        assert filter_passes(64, _cfg(tiles=32, partition="hybrid")) == pytest.approx(1 / 8)


class TestStepTermMaxima:
    def test_simple_max(self):
        # 2 channels, 3x3 spatial, 1x1 kernel.
        tm = np.zeros((2, 3, 3), dtype=np.int64)
        tm[0, 1, 1] = 5
        tm[1, 1, 1] = 3
        maxima, total = step_term_maxima(tm, 1, 1, 1, 3, 3, brick=16)
        assert maxima.shape == (1, 3, 3)
        assert maxima[0, 1, 1] == 5
        assert total == 8

    def test_steps_counted(self):
        tm = np.zeros((33, 5, 5), dtype=np.int64)
        maxima, _ = step_term_maxima(tm, 3, 1, 1, 3, 3, brick=16)
        assert maxima.shape == (3 * 9, 3, 3)  # ceil(33/16)=3 bricks x 9 taps

    def test_stride_and_dilation(self):
        tm = np.arange(25, dtype=np.int64).reshape(1, 5, 5) % 7
        maxima, _ = step_term_maxima(tm, 2, 2, 2, 2, 2, brick=16)
        assert maxima.shape == (4, 2, 2)
        # window (0,0), tap (1,1) at dilation 2 reads position (2,2).
        assert maxima[3, 0, 0] == tm[0, 2, 2]


class TestLaneTermTotals:
    def test_folding_across_bricks(self):
        # 32 channels fold into 16 lanes: lane c sums channels c and c+16.
        tm = np.ones((32, 3, 3), dtype=np.int64)
        totals, grand = lane_term_totals(tm, 1, 1, 1, 3, 3, brick=16)
        assert totals.shape == (16, 3, 3)
        assert np.all(totals == 2)
        assert grand == totals.sum()

    def test_kernel_taps_accumulate(self):
        tm = np.ones((1, 4, 4), dtype=np.int64)
        totals, _ = lane_term_totals(tm, 3, 1, 1, 2, 2, brick=1)
        assert np.all(totals == 9)

    def test_grand_total_matches_step_sum(self):
        rng = np.random.default_rng(0)
        tm = rng.integers(0, 8, (20, 6, 6))
        _, t1 = lane_term_totals(tm, 3, 1, 1, 4, 4, brick=16)
        _, t2 = step_term_maxima(tm, 3, 1, 1, 4, 4, brick=16)
        assert t1 == t2


class TestPalletCycles:
    def test_lane_sync_max(self):
        totals = np.zeros((16, 1, 16), dtype=np.int64)
        totals[3, 0, 7] = 42
        assert pallet_cycles(totals, 16, "lane") == 42.0

    def test_row_sync_sums_phases(self):
        # Two pallets in a row; phase 0 busy in both -> work adds up.
        totals = np.zeros((16, 1, 32), dtype=np.int64)
        totals[0, 0, 0] = 10
        totals[0, 0, 16] = 20
        assert pallet_cycles(totals, 16, "row") == 30.0

    def test_column_sync(self):
        maxima = np.zeros((2, 1, 16), dtype=np.int64)
        maxima[0, 0, 3] = 4
        maxima[1, 0, 3] = 5
        maxima[0, 0, 9] = 7
        # column 3 total = 9, column 9 total = 7 -> pallet takes 9.
        assert pallet_cycles(maxima, 16, "column") == 9.0

    def test_pallet_sync(self):
        maxima = np.zeros((2, 1, 16), dtype=np.int64)
        maxima[0, 0, 3] = 4
        maxima[1, 0, 9] = 5
        assert pallet_cycles(maxima, 16, "pallet") == 9.0

    def test_tail_pallet_padded(self):
        maxima = np.ones((1, 1, 18), dtype=np.int64)
        # two pallets; the tail pallet runs with 14 idle columns.
        assert pallet_cycles(maxima, 16, "pallet") == 2.0

    def test_unknown_sync(self):
        with pytest.raises(ValueError):
            pallet_cycles(np.zeros((1, 1, 16), dtype=np.int64), 16, "psychic")

    def test_sync_ordering_pessimism(self):
        """lane <= column <= pallet on any data (more sync = more cycles).

        Lane/row operate on lane totals, column/pallet on step maxima; the
        ordering that must always hold is column <= pallet.
        """
        rng = np.random.default_rng(1)
        maxima = rng.integers(0, 8, (9, 4, 32))
        col = pallet_cycles(maxima, 16, "column")
        pal = pallet_cycles(maxima, 16, "pallet")
        assert col <= pal


class TestGeometryOccupancies:
    def _layer(self, cin, cout):
        from tests.conftest import small_trace

        trace = small_trace("DnCNN")
        # Build a synthetic ConvLayerTrace-like record via dataclass replace.
        from dataclasses import replace

        layer = trace[0]
        imap = np.zeros((cin, 4, 4), dtype=np.int64)
        omap = np.zeros((cout, 4, 4), dtype=np.int64)
        return replace(layer, imap=imap, omap=omap, out_channels=cout)

    def test_three_filter_layer_keeps_3_of_64(self):
        layer = self._layer(64, 3)
        filter_occ, _ = geometry_occupancies(layer, DIFFY_CONFIG)
        assert filter_occ == pytest.approx(3 / 64)

    def test_three_channel_layer_keeps_3_of_16_lanes(self):
        layer = self._layer(3, 64)
        _, channel_occ = geometry_occupancies(layer, DIFFY_CONFIG)
        assert channel_occ == pytest.approx(3 / 16)

    def test_full_layer_fully_occupied(self):
        layer = self._layer(64, 64)
        filter_occ, channel_occ = geometry_occupancies(layer, DIFFY_CONFIG)
        assert filter_occ == 1.0
        assert channel_occ == 1.0


#: Randomized layer geometries for the vectorized-vs-loop equivalence
#: guard: channel counts straddling brick boundaries, strides, and the
#: dilated IRCNN-style taps.
geometries = st.tuples(
    st.integers(min_value=1, max_value=40),   # channels
    st.integers(min_value=1, max_value=5),    # kernel
    st.integers(min_value=1, max_value=3),    # stride
    st.integers(min_value=1, max_value=4),    # dilation
    st.integers(min_value=1, max_value=6),    # out_h
    st.integers(min_value=1, max_value=6),    # out_w
    st.sampled_from([4, 16]),                 # brick
    st.integers(min_value=0, max_value=2**32 - 1),  # term-map seed
)


#: Wide lane-totals geometries: every kernel up to 9x9, the dilation-4
#: extreme, the brick sizes of T_1/T_4/T_16, non-square outputs, and a
#: spatial margin past the exact window span on either axis.
wide_geometries = st.tuples(
    st.integers(min_value=1, max_value=40),   # channels
    st.integers(min_value=1, max_value=9),    # kernel
    st.integers(min_value=1, max_value=3),    # stride
    st.integers(min_value=1, max_value=4),    # dilation
    st.integers(min_value=1, max_value=7),    # out_h
    st.integers(min_value=1, max_value=9),    # out_w
    st.sampled_from([1, 4, 16]),              # brick
    st.integers(min_value=0, max_value=3),    # row margin
    st.integers(min_value=0, max_value=3),    # column margin
    st.integers(min_value=0, max_value=2**32 - 1),  # term-map seed
)


def _random_term_map(seed, c, h, w):
    # Booth term counts of a 16-bit word are 0..8; include the extremes.
    return np.random.default_rng(seed).integers(0, 9, size=(c, h, w)).astype(np.int64)


class TestVectorizedKernelsMatchLoops:
    """The strided-view kernels are drop-in replacements for the loop
    spec in ``tests/oracles`` — exact equality on every geometry."""

    @settings(max_examples=60, deadline=None)
    @given(geometries)
    def test_step_term_maxima(self, geom):
        c, kernel, stride, dilation, out_h, out_w, brick, seed = geom
        h = (kernel - 1) * dilation + (out_h - 1) * stride + 1
        w = (kernel - 1) * dilation + (out_w - 1) * stride + 1
        tm = _random_term_map(seed, c, h, w)
        maxima, total = step_term_maxima(tm, kernel, stride, dilation, out_h, out_w, brick)
        ref_maxima, ref_total = step_term_maxima_loops(
            tm, kernel, stride, dilation, out_h, out_w, brick
        )
        assert maxima.shape == ref_maxima.shape
        assert maxima.dtype == ref_maxima.dtype
        assert np.array_equal(maxima, ref_maxima)
        assert total == ref_total

    @settings(max_examples=150, deadline=None)
    @given(wide_geometries)
    def test_lane_term_totals(self, geom):
        # The kernel sums taps as x adds then y adds; the loop spec adds
        # each (fy, fx) tap in turn.  Integer sums: exact either way.
        c, kernel, stride, dilation, out_h, out_w, brick, mh, mw, seed = geom
        h = (kernel - 1) * dilation + (out_h - 1) * stride + 1 + mh
        w = (kernel - 1) * dilation + (out_w - 1) * stride + 1 + mw
        tm = _random_term_map(seed, c, h, w)
        totals, total = lane_term_totals(tm, kernel, stride, dilation, out_h, out_w, brick)
        ref_totals, ref_total = lane_term_totals_loops(
            tm, kernel, stride, dilation, out_h, out_w, brick
        )
        assert totals.shape == ref_totals.shape
        assert totals.dtype == ref_totals.dtype
        assert np.array_equal(totals, ref_totals)
        assert total == ref_total

    def test_spatial_margin_beyond_kernel_span(self):
        # Real padded imaps are larger than the exact window span; the
        # strided view must respect out_h/out_w, not consume the margin.
        tm = _random_term_map(7, 20, 30, 33)
        for fn, ref in (
            (step_term_maxima, step_term_maxima_loops),
            (lane_term_totals, lane_term_totals_loops),
        ):
            got = fn(tm, 3, 1, 1, 10, 12, 16)
            want = ref(tm, 3, 1, 1, 10, 12, 16)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_dilated_ircnn_layer_end_to_end(self, ircnn_trace):
        # IRCNN's mid layers are the dilation-4 extreme in the model zoo;
        # both sync aggregates must agree with the references on a real
        # dilated trace layer, not just synthetic maps.
        layer = max(ircnn_trace, key=lambda l: l.dilation)
        assert layer.dilation > 1
        from repro.arch.term_maps import raw_term_map

        tm = raw_term_map(layer)
        _, out_h, out_w = layer.omap_shape
        args = (layer.kernel, layer.stride, layer.dilation, out_h, out_w, 16)
        got = step_term_maxima(tm, *args)
        want = step_term_maxima_loops(tm, *args)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        got = lane_term_totals(tm, *args)
        want = lane_term_totals_loops(tm, *args)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_non_contiguous_input(self):
        base = _random_term_map(3, 24, 12, 12)
        tm = base[::2]  # strided channel view
        got = step_term_maxima(tm, 3, 1, 1, 10, 10, 16)
        want = step_term_maxima_loops(tm, 3, 1, 1, 10, 10, 16)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_too_small_map_raises(self):
        tm = _random_term_map(1, 4, 4, 4)
        with pytest.raises(ValueError, match="too small"):
            step_term_maxima(tm, 3, 1, 3, 4, 4, 16)

    @pytest.mark.parametrize("short", ["rows", "columns"])
    def test_lane_totals_too_small_map_raises(self, short):
        h, w = (6, 7) if short == "rows" else (7, 6)
        tm = _random_term_map(2, 4, h, w)
        with pytest.raises(ValueError, match="too small"):
            lane_term_totals(tm, 3, 1, 1, 5, 5, 4)


def _geometry_layer(c, k_out, kernel, stride, dilation, out_h, out_w):
    """A trace layer that carries only the geometry the cycle model reads."""
    return ConvLayerTrace(
        name="probe",
        index=0,
        imap=np.zeros((c, 1, 1), dtype=np.int64),
        imap_scale=0,
        omap=np.zeros((k_out, out_h, out_w), dtype=np.int64),
        omap_scale=0,
        out_channels=k_out,
        kernel=kernel,
        stride=stride,
        padding=0,
        dilation=dilation,
        relu=True,
    )


SYNCS = ("lane", "row", "column", "pallet")


class TestHeadSpliceMatchesTwoAggregateSpec:
    """Under ``lane``/``row`` sync the body terms a head window replaces
    are read off the aggregate; the spec re-aggregates them."""

    @settings(max_examples=80, deadline=None)
    @given(
        geometries,
        st.sampled_from(SYNCS),
        st.sampled_from(["x", "y"]),
        st.integers(min_value=1, max_value=80),
    )
    def test_constructed_layers(self, geom, sync, axis, k_out):
        c, kernel, stride, dilation, out_h, out_w, brick, seed = geom
        h = (kernel - 1) * dilation + (out_h - 1) * stride + 2
        w = (kernel - 1) * dilation + (out_w - 1) * stride + 3
        delta = _random_term_map(seed, c, h, w)
        raw = _random_term_map(seed + 1, c, h, w)
        layer = _geometry_layer(c, k_out, kernel, stride, dilation, out_h, out_w)
        cfg = dataclasses.replace(DIFFY_CONFIG, sync=sync, terms_per_filter=brick)
        got = serial_layer_cycles(layer, delta, cfg, head_term_map=raw, axis=axis)
        want = serial_layer_cycles_two_aggregates(
            layer, delta, cfg, head_term_map=raw, axis=axis
        )
        assert got == want

    @pytest.mark.parametrize("sync", SYNCS)
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_traced_layers(self, sync, axis, dncnn_trace, ircnn_trace):
        cfg = dataclasses.replace(DIFFY_CONFIG, sync=sync)
        dilated = max(ircnn_trace, key=lambda layer: layer.dilation)
        for layer in (dncnn_trace[0], dncnn_trace[1], dncnn_trace[-1], dilated):
            args = (layer, delta_term_map(layer, axis=axis), cfg)
            raw = raw_term_map(layer)
            got = serial_layer_cycles(*args, head_term_map=raw, axis=axis)
            want = serial_layer_cycles_two_aggregates(*args, head_term_map=raw, axis=axis)
            assert got == want

    @pytest.mark.parametrize("sync", ["column", "pallet"])
    def test_one_by_one_layer_without_margin(self, sync):
        # The step-maxima view of a marginless 1x1 layer is already
        # contiguous; the splice must still get a writeable copy.
        layer = _geometry_layer(4, 4, 1, 1, 1, 3, 5)
        delta, raw = _random_term_map(0, 4, 3, 5), _random_term_map(1, 4, 3, 5)
        cfg = dataclasses.replace(DIFFY_CONFIG, sync=sync)
        got = serial_layer_cycles(layer, delta, cfg, head_term_map=raw)
        assert got == serial_layer_cycles_two_aggregates(layer, delta, cfg, head_term_map=raw)

    def test_unknown_axis(self):
        layer = _geometry_layer(4, 4, 1, 1, 1, 2, 2)
        tm = _random_term_map(0, 4, 2, 2)
        with pytest.raises(ValueError, match="axis must be"):
            serial_layer_cycles(layer, tm, DIFFY_CONFIG, head_term_map=tm, axis="z")
