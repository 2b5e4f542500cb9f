"""Tests for the spatial delta transform and its exact inverse."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.deltas import (
    reconstruct_from_deltas,
    spatial_deltas,
)

int_maps = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=12),
    elements=st.integers(min_value=-30000, max_value=30000),
)


class TestSpatialDeltas:
    def test_x_axis_semantics(self):
        fmap = np.array([[1, 4, 9, 16]])
        assert np.array_equal(spatial_deltas(fmap, "x"), [[1, 3, 5, 7]])

    def test_y_axis_semantics(self):
        fmap = np.array([[1], [4], [9]])
        assert np.array_equal(spatial_deltas(fmap, "y"), [[1], [3], [5]])

    def test_stride_2(self):
        fmap = np.array([[10, 20, 30, 40, 50]])
        out = spatial_deltas(fmap, "x", stride=2)
        assert np.array_equal(out, [[10, 20, 20, 20, 20]])

    def test_head_kept_raw(self):
        fmap = np.array([[7, 7, 7]])
        out = spatial_deltas(fmap, "x")
        assert out[0, 0] == 7
        assert np.all(out[0, 1:] == 0)

    def test_channel_dims_independent(self):
        fmap = np.stack([np.arange(4).reshape(1, 4), np.arange(0, 40, 10).reshape(1, 4)])
        out = spatial_deltas(fmap, "x")
        assert np.array_equal(out[0], [[0, 1, 1, 1]])
        assert np.array_equal(out[1], [[0, 10, 10, 10]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            spatial_deltas(np.array([1, 2, 3]))

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            spatial_deltas(np.zeros((2, 2)), "z")

    def test_constant_map_deltas_are_sparse(self):
        fmap = np.full((4, 6, 6), 123)
        out = spatial_deltas(fmap)
        assert (out == 0).sum() == 4 * 6 * 5


class TestReconstruct:
    @given(int_maps)
    @settings(max_examples=60)
    def test_roundtrip_x(self, fmap):
        assert np.array_equal(reconstruct_from_deltas(spatial_deltas(fmap, "x"), "x"), fmap)

    @given(int_maps)
    @settings(max_examples=60)
    def test_roundtrip_y(self, fmap):
        assert np.array_equal(reconstruct_from_deltas(spatial_deltas(fmap, "y"), "y"), fmap)

    @given(int_maps, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_roundtrip_strided(self, fmap, stride):
        for axis in ("x", "y"):
            deltas = spatial_deltas(fmap, axis, stride)
            assert np.array_equal(reconstruct_from_deltas(deltas, axis, stride), fmap)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            reconstruct_from_deltas(np.array([1, 2]))
