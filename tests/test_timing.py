"""Tests for the instrumentation layer (timers, counters, report)."""

from __future__ import annotations

import time

import pytest

from repro.utils import timing


@pytest.fixture(autouse=True)
def _clean_registry():
    timing.reset()
    yield
    timing.reset()


class TestTimers:
    def test_accumulates_calls_and_time(self):
        for _ in range(3):
            with timing.timed("work"):
                time.sleep(0.001)
        stats = timing.timer_stats()
        assert stats["work"].calls == 3
        assert stats["work"].total_s >= 0.003
        assert stats["work"].mean_s == pytest.approx(stats["work"].total_s / 3)

    def test_nested_paths(self):
        with timing.timed("outer"):
            with timing.timed("inner"):
                pass
        stats = timing.timer_stats()
        assert "outer" in stats
        assert "outer/inner" in stats
        assert "inner" not in stats

    def test_exception_still_recorded(self):
        with pytest.raises(ValueError):
            with timing.timed("boom"):
                raise ValueError()
        assert timing.timer_stats()["boom"].calls == 1
        # the nesting stack must unwind so later timers get clean paths
        with timing.timed("after"):
            pass
        assert "after" in timing.timer_stats()


class TestCounters:
    def test_count_accumulates(self):
        timing.count("cache.hit")
        timing.count("cache.hit", 4)
        assert timing.counter_values()["cache.hit"] == 5

    def test_reset_clears_everything(self):
        timing.count("c")
        with timing.timed("t"):
            pass
        timing.reset()
        assert timing.counter_values() == {}
        assert timing.timer_stats() == {}


class TestReport:
    def test_report_names_all_entries(self):
        with timing.timed("alpha"):
            pass
        timing.count("beta", 2)
        text = timing.report()
        assert "alpha" in text
        assert "beta" in text
        assert "2" in text

    def test_empty_report_is_valid(self):
        assert "no timers" in timing.report()

    def test_profiling_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not timing.profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert timing.profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not timing.profiling_enabled()


class TestStreamingHistogram:
    def test_validation(self):
        with pytest.raises(ValueError, match="bins"):
            timing.StreamingHistogram(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="hi > lo"):
            timing.StreamingHistogram(1.0, 1.0, 4)
        with pytest.raises(ValueError, match="log"):
            timing.StreamingHistogram(0.0, 1.0, 4, log=True)
        with pytest.raises(ValueError, match="percentile"):
            timing.StreamingHistogram(0.0, 1.0, 4).percentile(101)
        with pytest.raises(ValueError, match="weight"):
            timing.StreamingHistogram(0.0, 1.0, 4).record(0.5, weight=-1)

    def test_counts_mean_minmax(self):
        hist = timing.StreamingHistogram(0.0, 10.0, 10)
        hist.record_values([1.5, 2.5, 2.6, 9.1])
        assert hist.n == 4
        assert hist.counts[1] == 1 and hist.counts[2] == 2 and hist.counts[9] == 1
        assert hist.mean == pytest.approx((1.5 + 2.5 + 2.6 + 9.1) / 4)
        assert hist.vmin == 1.5 and hist.vmax == 9.1

    def test_out_of_range_clamps_into_end_bins(self):
        hist = timing.StreamingHistogram(0.0, 1.0, 4)
        hist.record(-5.0)
        hist.record(42.0)
        assert hist.counts[0] == 1 and hist.counts[-1] == 1
        # ...but min/max stay exact.
        assert hist.vmin == -5.0 and hist.vmax == 42.0

    def test_percentiles_within_one_bin_of_exact(self):
        import numpy as np

        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 100.0, size=2000)
        hist = timing.StreamingHistogram(0.0, 100.0, 200)
        hist.record_values(samples)
        bin_width = 0.5
        for q in (50, 95, 99):
            exact = float(np.percentile(samples, q))
            assert abs(hist.percentile(q) - exact) <= 2 * bin_width

    def test_percentile_clamped_to_observed_extremes(self):
        hist = timing.StreamingHistogram(0.0, 100.0, 10)
        hist.record(33.0)
        # A single sample: every percentile is that sample, not a bin edge.
        assert hist.percentile(0) == 33.0
        assert hist.percentile(50) == 33.0
        assert hist.percentile(100) == 33.0

    def test_empty_summary_is_nan(self):
        summary = timing.StreamingHistogram(0.0, 1.0, 4).summary()
        assert summary["count"] == 0
        for key in ("mean", "min", "max", "p50", "p95", "p99"):
            assert summary[key] != summary[key]  # NaN

    def test_merge_equals_single_stream(self):
        import numpy as np

        rng = np.random.default_rng(11)
        samples = rng.exponential(5.0, size=1000)
        whole = timing.StreamingHistogram(1e-3, 1e3, 64, log=True)
        whole.record_values(samples)
        part_a = timing.StreamingHistogram(1e-3, 1e3, 64, log=True)
        part_b = timing.StreamingHistogram(1e-3, 1e3, 64, log=True)
        part_a.record_values(samples[:400])
        part_b.record_values(samples[400:])
        merged = part_a.merge(part_b)
        assert merged is part_a
        assert merged.counts == whole.counts
        assert merged.n == whole.n
        # Percentiles depend only on counts/extremes: exactly equal.
        for q in (50, 95, 99):
            assert merged.percentile(q) == whole.percentile(q)
        # The mean's float sum is association-sensitive: equal to 1 ulp.
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)

    def test_record_values_matches_record_loop(self):
        import numpy as np

        rng = np.random.default_rng(23)
        samples = rng.exponential(0.2, size=2000)
        # Include exact edge values: a value on a bin edge falls into the
        # bin above it either way.
        looped = timing.StreamingHistogram(1e-4, 1e3, 288, log=True)
        samples = np.concatenate([samples, np.array(looped._edges[:5])])
        looped = timing.StreamingHistogram(1e-4, 1e3, 288, log=True)
        at_once = timing.StreamingHistogram(1e-4, 1e3, 288, log=True)
        for v in samples:
            looped.record(float(v))
        at_once.record_values(samples)
        assert at_once.counts == looped.counts
        assert at_once.n == looped.n
        assert at_once.vmin == looped.vmin
        assert at_once.vmax == looped.vmax
        for q in (50, 95, 99):
            assert at_once.percentile(q) == looped.percentile(q)
        assert at_once.total == looped.total

    def test_record_values_empty_and_shape(self):
        import numpy as np

        hist = timing.StreamingHistogram(0.0, 10.0, 10)
        hist.record_values(np.array([]))
        assert hist.n == 0
        hist.record_values(np.array([[1.0, 2.0], [3.0, 4.0]]))  # reshaped to 1-D
        assert hist.n == 4

    def test_merge_rejects_different_binning(self):
        a = timing.StreamingHistogram(0.0, 1.0, 4)
        b = timing.StreamingHistogram(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="different bins"):
            a.merge(b)

    def test_log_bins_resolve_small_values(self):
        hist = timing.StreamingHistogram(1e-4, 1e2, 120, log=True)
        hist.record_values([1e-3] * 99 + [10.0])
        assert hist.percentile(50) == pytest.approx(1e-3, rel=0.15)
        assert hist.percentile(99) == pytest.approx(1e-3, rel=0.15)
        assert hist.percentile(100) == 10.0

    def test_weighted_record(self):
        hist = timing.StreamingHistogram(0.0, 10.0, 10)
        hist.record(2.0, weight=3)
        hist.record(8.0)
        assert hist.n == 4
        assert hist.mean == pytest.approx((2.0 * 3 + 8.0) / 4)
        hist.record(5.0, weight=0)  # no-op
        assert hist.n == 4
