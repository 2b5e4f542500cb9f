"""Tests for the Fig 18 design-space search."""

import pytest

from repro.arch.metrics import minimum_tiles_for_fps


class TestMinimumTilesForFps:
    def test_low_target_needs_base_config(self):
        choice = minimum_tiles_for_fps("IRCNN", target_fps=1.0, trace_count=1)
        assert choice is not None
        assert choice.tiles == 4

    def test_higher_target_needs_more_tiles(self):
        low = minimum_tiles_for_fps("IRCNN", target_fps=5.0, trace_count=1)
        high = minimum_tiles_for_fps("IRCNN", target_fps=30.0, trace_count=1)
        assert low is not None and high is not None
        assert high.tiles >= low.tiles
        assert high.fps >= 30.0

    def test_unreachable_returns_none(self):
        choice = minimum_tiles_for_fps(
            "DnCNN", target_fps=1e6, tile_sweep=(4,), trace_count=1
        )
        assert choice is None

    def test_target_validated(self):
        with pytest.raises(ValueError):
            minimum_tiles_for_fps("IRCNN", target_fps=0.0)

