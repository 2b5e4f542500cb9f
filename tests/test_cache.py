"""Cache correctness: warm == cold bit-identically, and the store obeys
its env-var contract (location, kill switch, schema invalidation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.sim import collect_traces, simulate_network
from repro.cache import store
from repro.data.datasets import dataset
from repro.experiments.common import traces_for
from repro.models.registry import prepare_model
from repro.serve.latency import measure_service_times
from repro.utils import timing
from tests.conftest import small_trace


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """An empty disk cache with all in-memory memo layers dropped."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    store.clear_memory_caches()
    store.reset_stats()
    yield tmp_path
    store.clear_memory_caches()


def _synthesis_calls() -> int:
    """How many frames this process has synthesized, at any timer nesting."""
    return sum(
        stat.calls
        for path, stat in timing.timer_stats().items()
        if path.rsplit("/", 1)[-1] == "data.synthesize_image"
    )


def _assert_traces_identical(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.network == tb.network
        assert ta.input_shape == tb.input_shape
        assert ta.input_scale == tb.input_scale
        assert len(ta) == len(tb)
        for la, lb in zip(ta, tb):
            assert la.name == lb.name and la.index == lb.index
            assert (la.kernel, la.stride, la.padding, la.dilation) == (
                lb.kernel, lb.stride, lb.padding, lb.dilation
            )
            assert la.imap_scale == lb.imap_scale
            assert la.omap_scale == lb.omap_scale
            assert la.imap.dtype == lb.imap.dtype
            assert np.array_equal(la.imap, lb.imap)
            assert np.array_equal(la.omap, lb.omap)


class TestStore:
    def test_digest_is_stable_and_key_sensitive(self):
        d1 = store.stable_digest("ns", "DnCNN", 2, 0xD1FF)
        assert d1 == store.stable_digest("ns", "DnCNN", 2, 0xD1FF)
        assert d1 != store.stable_digest("ns", "DnCNN", 3, 0xD1FF)
        assert d1 != store.stable_digest("other", "DnCNN", 2, 0xD1FF)

    def test_fetch_computes_once_then_hits(self, fresh_cache):
        calls = []

        def compute():
            calls.append(1)
            return {"x": np.arange(5)}

        v1 = store.fetch_or_compute("t", ("k",), compute)
        v2 = store.fetch_or_compute("t", ("k",), compute)
        assert len(calls) == 1
        assert np.array_equal(v1["x"], v2["x"])
        stats = store.cache_stats()
        assert stats.misses == 1 and stats.hits == 1 and stats.stores == 1

    def test_no_cache_env_bypasses_store(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []
        for _ in range(2):
            store.fetch_or_compute("t", ("k",), lambda: calls.append(1) or 42)
        assert len(calls) == 2, "disabled cache must recompute every fetch"
        assert not list(fresh_cache.rglob("*.pkl")), "disabled cache must not write"
        assert store.cache_stats().bypasses == 2

    def test_schema_bump_invalidates(self, fresh_cache, monkeypatch):
        calls = []
        store.fetch_or_compute("t", ("k",), lambda: calls.append(1) or 1)
        monkeypatch.setattr(store, "CACHE_SCHEMA_VERSION", store.CACHE_SCHEMA_VERSION + 1)
        store.fetch_or_compute("t", ("k",), lambda: calls.append(1) or 1)
        assert len(calls) == 2, "new schema version must not read old entries"

    def test_corrupt_entry_recomputed(self, fresh_cache):
        store.fetch_or_compute("t", ("k",), lambda: 7)
        (entry,) = list(fresh_cache.rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        assert store.fetch_or_compute("t", ("k",), lambda: 7) == 7
        assert store.cache_stats().errors >= 1

    def test_corrupt_entry_quarantined_for_postmortem(self, fresh_cache):
        """A truncated pickle is moved aside (evidence kept), not overwritten
        silently, and the next fetch recomputes and restores a good entry."""
        store.fetch_or_compute("traces", ("model", 1), lambda: [1, 2, 3])
        digest = store.stable_digest("traces", "model", 1)
        entry = store._entry_path("traces", digest)
        good = entry.read_bytes()
        entry.write_bytes(good[: len(good) // 2])  # torn write

        assert store.fetch_or_compute("traces", ("model", 1), lambda: [1, 2, 3]) == [
            1, 2, 3,
        ]
        stats = store.cache_stats()
        assert stats.quarantined == 1
        quarantined = fresh_cache / "quarantine" / "traces" / entry.name
        assert quarantined.is_file(), "corrupt entry must be preserved"
        assert quarantined.read_bytes() == good[: len(good) // 2]
        # The live slot was rewritten and now hits cleanly.
        assert store.fetch_or_compute("traces", ("model", 1), lambda: 0) == [1, 2, 3]
        assert store.cache_stats().quarantined == 1

    def test_purge_empties_root(self, fresh_cache):
        store.fetch_or_compute("a", (1,), lambda: 1)
        store.fetch_or_compute("b", (2,), lambda: 2)
        assert store.purge() == 2
        assert not list(fresh_cache.rglob("*.pkl"))

    def test_env_is_read_per_call(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not store.cache_enabled()
        monkeypatch.delenv("REPRO_NO_CACHE")
        assert store.cache_enabled()
        assert store.cache_root() == fresh_cache


class TestWarmColdEquivalence:
    """The headline invariant: cached results are bit-identical."""

    def test_crops_round_trip(self, fresh_cache):
        cold = dataset("Kodak24").crop(0, 32)
        store.clear_memory_caches()
        hits = store.cache_stats().hits
        warm = dataset("Kodak24").crop(0, 32)
        assert store.cache_stats().hits == hits + 1
        assert warm.dtype == cold.dtype
        assert np.array_equal(warm, cold)
        for crop in (cold, warm):
            assert crop.flags.c_contiguous and not crop.flags.writeable
        assert (fresh_cache / "crops").is_dir()
        assert not (fresh_cache / "images").exists(), "frames must stay off disk"

    def test_cached_crop_does_not_synthesize(self, fresh_cache):
        before = _synthesis_calls()
        dataset("HD33").crop(0, 48)
        assert _synthesis_calls() == before + 1
        store.clear_memory_caches()
        crop = dataset("HD33").crop(0, 48)
        assert _synthesis_calls() == before + 1, "a cache-hit crop synthesized its frame"
        assert crop.shape == (3, 48, 48)

    def test_traces_warm_equals_cold(self, fresh_cache):
        cold = traces_for("DnCNN", count=1, crop=48)
        store.clear_memory_caches()  # next call must come from disk
        warm = traces_for("DnCNN", count=1, crop=48)
        assert store.cache_stats().hits >= 1
        _assert_traces_identical(cold, warm)

    def test_simulate_network_warm_equals_cold(self, fresh_cache):
        kwargs = dict(trace_count=1, crop=48)
        cold = simulate_network("DnCNN", "Diffy", **kwargs)
        store.clear_memory_caches()
        warm = simulate_network("DnCNN", "Diffy", **kwargs)
        assert warm == cold  # NetworkResult is scalar-field dataclasses

    def test_cache_disabled_matches_enabled(self, fresh_cache, monkeypatch):
        kwargs = dict(trace_count=1, crop=48)
        enabled = simulate_network("FFDNet", "PRA", **kwargs)
        store.clear_memory_caches()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        disabled = simulate_network("FFDNet", "PRA", **kwargs)
        assert disabled == enabled

    def test_prepared_model_round_trip_traces_identically(self, fresh_cache):
        net_cold = prepare_model("IRCNN")
        image = dataset("HD33").crop(0, 40)
        trace_cold = net_cold.trace(image)
        store.clear_memory_caches()
        net_warm = prepare_model("IRCNN")
        assert net_warm is not net_cold, "second call must come from disk"
        trace_warm = net_warm.trace(image)
        _assert_traces_identical([trace_cold], [trace_warm])


class TestStoredMapsThroughTheCache:
    """Traces store int16 maps and each layer's imap is the previous
    layer's omap array; both survive a disk-cache load, and the loaded
    maps are read-only again (pickle restores arrays writeable)."""

    MODELS = ("DnCNN", "FFDNet", "IRCNN", "JointNet", "VDSR")
    CROP = 32

    @pytest.fixture(scope="class")
    def cold_and_warm(self):
        cold = {m: small_trace(m, crop=self.CROP) for m in self.MODELS}
        for m in self.MODELS:
            collect_traces(m, "HD33", 1, self.CROP)  # stored if not yet on disk
        store.clear_memory_caches()
        hits = store.cache_stats().hits
        warm = {m: collect_traces(m, "HD33", 1, self.CROP)[0] for m in self.MODELS}
        assert store.cache_stats().hits - hits == len(self.MODELS)
        return cold, warm

    def test_maps_are_int16(self, cold_and_warm):
        for traces in cold_and_warm:
            for trace in traces.values():
                for layer in trace:
                    assert layer.imap.dtype == layer.omap.dtype == np.int16

    def test_omap_is_next_imap_on_70_boundaries(self, cold_and_warm):
        for traces in cold_and_warm:
            shared, unshared = 0, []
            for m, trace in traces.items():
                for prev, layer in zip(trace.layers, trace.layers[1:]):
                    if prev.omap is layer.imap:
                        shared += 1
                    else:
                        unshared.append((m, prev.name, layer.name))
            assert shared == 70
            # A depth-to-space shuffle sits between these two.
            assert unshared == [("JointNet", "conv_16", "conv_17")]

    def test_loaded_maps_are_read_only(self, cold_and_warm):
        _, warm = cold_and_warm
        for trace in warm.values():
            for layer in trace:
                for arr in (layer.imap, layer.omap):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[(0,) * arr.ndim] = 1

    def test_warm_equals_cold(self, cold_and_warm):
        cold, warm = cold_and_warm
        _assert_traces_identical(
            [cold[m] for m in self.MODELS], [warm[m] for m in self.MODELS]
        )


class TestCropKeyNormalization:
    """crop=None and crop == spec.trace_crop must share one cache entry."""

    def test_single_entry_for_default_crop(self, fresh_cache):
        from repro.models.registry import get_model_spec

        spec = get_model_spec("FFDNet")
        a = collect_traces("FFDNet", "HD33", 1, None)
        b = collect_traces("FFDNet", "HD33", 1, spec.trace_crop)
        assert a is b, "normalized keys must hit the same memo entry"
        trace_entries = list((fresh_cache / "traces").rglob("*.pkl"))
        assert len(trace_entries) == 1


def _work_calls() -> int:
    """Frames synthesized plus networks calibrated, at any timer nesting."""
    return sum(
        stat.calls
        for path, stat in timing.timer_stats().items()
        if path.rsplit("/", 1)[-1] in ("data.synthesize_image", "models.calibrate")
    )


class TestSeedAndCropAtTheBoundary:
    """A bad seed or crop fails with a ``ValueError`` naming it, before
    any cache lookup, synthesis or calibration."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: prepare_model("DnCNN", 1.5), "seed"),
            (lambda: prepare_model("DnCNN", -1), "seed"),
            (lambda: prepare_model("DnCNN", True), "seed"),
            (lambda: collect_traces("IRCNN", "Kodak24", 1, 48, seed=2.0), "seed"),
            (lambda: collect_traces("IRCNN", "Kodak24", 1, 48, seed=-3), "seed"),
            (lambda: collect_traces("IRCNN", "Kodak24", 1, -4, seed=1), "crop"),
            (lambda: collect_traces("IRCNN", "Kodak24", 1, 2.5, seed=1), "crop"),
            (lambda: collect_traces("IRCNN", "Kodak24", 1, 0, seed=1), "crop"),
        ],
    )
    def test_rejected_before_any_work(self, fresh_cache, call, name):
        before = _work_calls()
        with pytest.raises(ValueError, match=rf"^{name} must"):
            call()
        assert _work_calls() == before
        assert not any(fresh_cache.iterdir()), "a rejected call touched the disk cache"

    def test_numpy_seed_shares_the_int_entry(self, fresh_cache):
        assert prepare_model("IRCNN", np.int64(3)) is prepare_model("IRCNN", 3)


class TestPinnedKeys:
    """The disk keys of calibrated models and measured service times are
    pinned tuples: a changed key silently orphans every entry a restored
    cache holds, so the cost of a refactor would show only as a cold CI."""

    @pytest.fixture()
    def keys(self, monkeypatch):
        recorded = []

        def record(namespace, key, compute):
            recorded.append((namespace, key))
            return {}

        store.clear_memory_caches()
        monkeypatch.setattr(store, "fetch_or_compute", record)
        yield recorded
        store.clear_memory_caches()

    def test_schema_version(self):
        assert store.CACHE_SCHEMA_VERSION == 3

    def test_prepare_model_key(self, keys):
        prepare_model("IRCNN", 7)
        assert keys == [("models", ("IRCNN", 7, 2, "Kodak24"))]

    def test_measure_service_times_key(self, keys):
        measure_service_times("IRCNN", engines=["VAA", "Diffy"], crop=32, seed=5)
        measure_service_times("DnCNN")
        assert keys == [
            (
                "serve_times",
                ("IRCNN", ("VAA", "Diffy"), 32, 3, 1, (1080, 1920), "DDR4-3200", 5),
            ),
            (
                "serve_times",
                ("DnCNN", ("VAA", "PRA", "Diffy"), 64, 3, 1, (1080, 1920), "DDR4-3200", 0xD1FF),
            ),
        ]


class TestQuarantineCap:
    """The quarantine area keeps the newest evidence, bounded in size."""

    def _quarantine_n(self, n, start_mtime=1000):
        import os

        for i in range(n):
            digest = f"{i:040d}"
            entry = store._entry_path("ns", digest)
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_bytes(b"not a pickle")
            os.utime(entry, (start_mtime + i, start_mtime + i))
            store._quarantine("ns", entry)

    def test_oldest_evicted_beyond_cap(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(store, "QUARANTINE_CAP", 5)
        self._quarantine_n(9)
        kept = sorted(p.stem for p in (fresh_cache / "quarantine").rglob("*.pkl"))
        assert kept == [f"{i:040d}" for i in range(4, 9)], (
            "the newest five by mtime must survive"
        )
        stats = store.cache_stats()
        assert stats.quarantined == 9
        assert stats.quarantine_evicted == 4

    def test_under_cap_nothing_evicted(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(store, "QUARANTINE_CAP", 5)
        self._quarantine_n(3)
        assert len(list((fresh_cache / "quarantine").rglob("*.pkl"))) == 3
        assert store.cache_stats().quarantine_evicted == 0

    def test_cap_default(self):
        assert store.QUARANTINE_CAP == 32


class TestStatsThreadSafety:
    def test_counts_are_atomic_under_contention(self):
        """Regression: a bare ``stats.hits += 1`` lost updates when
        workers shared the store from threads; the registry's locked
        read-modify-write must count exactly."""
        import threading

        store.reset_stats()
        threads_n, per_thread = 8, 2500
        barrier = threading.Barrier(threads_n)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                timing.count("cache.ns.hit")
                timing.count("cache.ns.error", 2)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.cache_stats()
        assert stats.hits == threads_n * per_thread
        assert stats.errors == 2 * threads_n * per_thread
        store.reset_stats()

    def test_concurrent_fetches_count_consistently(self, fresh_cache):
        """Threads hitting the same entry: every fetch is accounted as a
        hit, miss, or store — no counts vanish."""
        import threading

        store.reset_stats()
        ready = threading.Barrier(6)

        def fetch():
            ready.wait()
            for i in range(50):
                value = store.fetch_or_compute(
                    "stats-race", ("shared", i % 5), lambda: 42
                )
                assert value == 42

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.cache_stats()
        # 300 fetches total; every one is either a hit or a miss.
        assert stats.hits + stats.misses == 300
        # Each of the 5 keys misses at least once before any hit...
        assert stats.misses >= 5
        # ...and hits dominate once entries exist.
        assert stats.hits > 200

    def test_snapshot_is_independent_copy(self):
        store.reset_stats()
        snap = store.cache_stats()
        timing.count("cache.ns.hit")
        assert snap.hits == 0
        assert store.cache_stats().hits == 1
        store.reset_stats()
