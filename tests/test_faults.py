"""Tests for the fault-injection subsystem (models, sites, campaign).

The load-bearing properties: injections are bit-deterministic under the
seeded RNG tree, never mutate their inputs, and the campaign reproduces
the paper-extension headline — delta storage amplifies error-run lengths
over raw word storage at equal bit-error rates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.codec import GroupCodec
from repro.compression.schemes import planar_order
from repro.core.deltas import reconstruct_from_deltas
from repro.faults import (
    BitFlip,
    Burst,
    CampaignPoint,
    StuckAt,
    campaign_grid,
    corrupt_protected_read,
    corruption_metrics,
    error_runs,
    fault_model,
    inject_deltas,
    inject_encoded,
    inject_words,
    run_campaign,
    run_length_amplification,
    run_protected_campaign,
)
from repro.faults.models import bits_to_words, inject_bits, select_events, words_to_bits
from repro.protect import (
    ProtectionPolicy,
    codeword_bits,
    secded_decode,
    secded_encode,
    store_protected,
)
from repro.utils.rng import rng_for

SEED = 0xD1FF


def _rng(*keys):
    return rng_for(SEED, "test-faults", *keys)


class TestBitHelpers:
    def test_words_bits_roundtrip(self):
        words = np.array([0, 1, 0x7FFF, 0xFFFF, 0x8000])
        bits = words_to_bits(words, 16)
        assert bits.dtype == np.uint8
        assert bits.size == words.size * 16
        assert np.array_equal(bits_to_words(bits, 16), words)

    def test_msb_first(self):
        assert words_to_bits(np.array([0x8001]), 16).tolist() == (
            [1] + [0] * 14 + [1]
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            words_to_bits(np.array([1 << 16]), 16)
        with pytest.raises(ValueError):
            words_to_bits(np.array([-1]), 16)
        with pytest.raises(ValueError):
            bits_to_words(np.zeros(17, dtype=np.uint8), 16)

    def test_select_events_rate_bounds(self):
        with pytest.raises(ValueError):
            select_events(100, 1.5, _rng("bounds"))
        assert select_events(100, 0.0, _rng("zero")).size == 0
        assert select_events(0, 0.5, _rng("empty")).size == 0


class TestFaultModels:
    def test_registry_names(self):
        for name in ("flip1", "flip2", "stuck0", "stuck1", "burst4", "burst8"):
            assert fault_model(name).name == name
        with pytest.raises(KeyError, match="unknown fault model"):
            fault_model("meltdown")

    def test_flip_flips_exactly_events(self):
        bits = np.zeros(64, dtype=np.uint8)
        BitFlip(1).mutate(bits, np.array([0, 7, 63]), _rng("flip"))
        assert np.flatnonzero(bits).tolist() == [0, 7, 63]

    def test_stuck_at_is_idempotent(self):
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        events = np.arange(4)
        StuckAt(1).mutate(bits, events, _rng("stuck"))
        assert bits.tolist() == [1, 1, 1, 1]
        StuckAt(1).mutate(bits, events, _rng("stuck2"))
        assert bits.tolist() == [1, 1, 1, 1]

    def test_burst_clips_at_stream_end(self):
        bits = np.zeros(10, dtype=np.uint8)
        Burst(4).mutate(bits, np.array([8]), _rng("burst"))
        assert np.flatnonzero(bits).tolist() == [8, 9]

    def test_inject_bits_deterministic(self):
        bits_a = np.zeros(10_000, dtype=np.uint8)
        bits_b = np.zeros(10_000, dtype=np.uint8)
        n_a = inject_bits(bits_a, 1e-3, BitFlip(1), _rng("det"))
        n_b = inject_bits(bits_b, 1e-3, BitFlip(1), _rng("det"))
        assert n_a == n_b > 0
        assert np.array_equal(bits_a, bits_b)


class TestInjectors:
    def test_inject_words_does_not_mutate_input(self):
        words = np.arange(256, dtype=np.int64).reshape(4, 64)
        before = words.copy()
        out, faults = inject_words(words, 0.01, fault_model("flip1"), _rng("words"))
        assert np.array_equal(words, before)
        assert out.shape == words.shape
        assert faults > 0 and not np.array_equal(out, words)

    def test_inject_words_signed_range(self):
        deltas = np.array([-32768, -1, 0, 32767])
        out, _ = inject_deltas(deltas, 0.0, fault_model("flip1"), _rng("signed"))
        assert np.array_equal(out, deltas)
        with pytest.raises(ValueError):
            inject_words(np.array([-1]), 0.0, fault_model("flip1"), _rng("neg"))

    def test_inject_words_flip_changes_one_value_per_event(self):
        words = np.zeros(4096, dtype=np.int64)
        out, faults = inject_words(words, 1e-3, fault_model("flip1"), _rng("one"))
        assert faults > 0
        # flip1 events land in distinct words with overwhelming probability
        # at this rate; each corrupts exactly the word holding its bit.
        assert 0 < int((out != 0).sum()) <= faults

    def test_inject_encoded_corrupts_only_payload(self):
        codec = GroupCodec(group_size=16, signed=True)
        values = _rng("payload").integers(-500, 500, size=256)
        encoded = codec.encode(values)
        corrupted, faults = inject_encoded(
            encoded, 5e-3, fault_model("flip1"), _rng("stream")
        )
        assert faults > 0
        assert corrupted.bits == encoded.bits
        assert corrupted.values == encoded.values
        assert corrupted.data != encoded.data
        # The original container is untouched.
        assert np.array_equal(codec.decode(encoded), values)

    def test_inject_encoded_decodes_lossily_not_fatally(self):
        codec = GroupCodec(group_size=16, signed=True)
        values = _rng("lossy").integers(-500, 500, size=512)
        encoded = codec.encode(values)
        corrupted, _ = inject_encoded(
            encoded, 1e-2, fault_model("burst4"), _rng("lossy-inject")
        )
        decoded = codec.decode(corrupted, strict=False)
        assert decoded.shape == (512,)
        assert not np.array_equal(decoded, values)


class TestMetrics:
    def test_error_runs_rows_independent(self):
        ref = np.zeros((2, 8), dtype=np.int64)
        obs = ref.copy()
        obs[0, 5:] = 1  # run of 3 to the row end
        obs[1, :2] = 1  # run of 2 at the row start
        runs = error_runs(ref, obs)
        assert sorted(runs.tolist()) == [2, 3]

    def test_clean_reconstruction_metrics(self):
        ref = np.arange(24).reshape(2, 3, 4)
        m = corruption_metrics(ref, ref)
        assert m.corrupted_values == 0
        assert m.mean_run_length == 0.0
        assert np.isinf(m.psnr_db)

    def test_single_error_metrics(self):
        ref = np.zeros((1, 1, 16), dtype=np.int64)
        ref[..., :] = np.arange(16)
        obs = ref.copy()
        obs[0, 0, 3] += 5
        m = corruption_metrics(ref, obs)
        assert m.corrupted_values == 1
        assert m.max_run_length == 1
        assert m.max_abs_error == 5
        assert np.isfinite(m.psnr_db)


class TestCampaign:
    @pytest.fixture(scope="class")
    def fmaps(self):
        rng = _rng("campaign-maps")
        smooth = np.cumsum(rng.integers(-3, 4, size=(4, 24, 32)), axis=-1)
        return [smooth.astype(np.int64)]

    @pytest.fixture(scope="class")
    def rows(self, fmaps):
        return run_campaign(
            fmaps,
            schemes=("Raw16", "DeltaD16"),
            sites=("memory", "delta"),
            rates=(1e-3,),
            fault_models=("flip1",),
            trials=2,
            seed=SEED,
        )

    def test_grid_skips_invalid_pairs(self):
        grid = campaign_grid(
            ["Raw16", "DeltaD16"], ["memory", "stream", "delta"], [1e-4], ["flip1"]
        )
        pairs = {(p.scheme, p.site) for p in grid}
        assert pairs == {
            ("Raw16", "memory"),
            ("DeltaD16", "stream"),
            ("DeltaD16", "delta"),
        }
        with pytest.raises(ValueError, match="unknown scheme"):
            campaign_grid(["Zip"], ["memory"], [1e-4], ["flip1"])
        with pytest.raises(ValueError, match="no valid"):
            campaign_grid(["Raw16"], ["delta"], [1e-4], ["flip1"])

    def test_campaign_bit_deterministic(self, fmaps, rows):
        again = run_campaign(
            fmaps,
            schemes=("Raw16", "DeltaD16"),
            sites=("memory", "delta"),
            rates=(1e-3,),
            fault_models=("flip1",),
            trials=2,
            seed=SEED,
        )
        assert again == rows

    def test_seed_changes_results(self, fmaps, rows):
        other = run_campaign(
            fmaps,
            schemes=("Raw16", "DeltaD16"),
            sites=("memory", "delta"),
            rates=(1e-3,),
            fault_models=("flip1",),
            trials=2,
            seed=SEED + 1,
        )
        assert other != rows

    def test_delta_storage_amplifies_runs(self, rows):
        by_point = {(r.point.scheme, r.point.site): r for r in rows}
        raw = by_point[("Raw16", "memory")].metrics
        delta = by_point[("DeltaD16", "delta")].metrics
        assert raw.corrupted_values > 0 and delta.corrupted_values > 0
        # Raw storage confines a bit error to one word; delta storage
        # accumulates it along the rest of the reconstruction row.
        assert raw.mean_run_length < 2.0
        assert delta.mean_run_length > 3.0 * raw.mean_run_length
        amp = run_length_amplification(rows)
        assert amp and min(amp.values()) > 3.0

    def test_delta_error_propagates_to_row_end(self):
        # One flipped delta corrupts everything downstream in its row.
        deltas = np.zeros((1, 1, 32), dtype=np.int64)

        flipped = deltas.copy()
        flipped[0, 0, 10] += 1

        clean = reconstruct_from_deltas(deltas)
        corrupt = reconstruct_from_deltas(flipped)
        runs = error_runs(clean, corrupt)
        assert runs.tolist() == [22]

    def test_point_fields_reach_rows(self, rows):
        assert all(isinstance(r.point, CampaignPoint) for r in rows)
        assert all(r.trials == 2 and r.maps == 1 for r in rows)
        assert all(r.stored_bits > 0 for r in rows)


class TestCampaignInputs:
    """Bad campaign arguments fail at the boundary, before any map work."""

    #: A 2-D map fails when a campaign prepares it, so an argument error
    #: that surfaces instead proves the check ran first.
    FLAT_MAP = [np.zeros((4, 8), dtype=np.int64)]

    @pytest.mark.parametrize("run", [run_campaign, run_protected_campaign])
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"trials": 1.5}, "trials must be an integer"),
            ({"trials": 0}, "trials must be > 0"),
            ({"rates": (1e-3, 1.5)}, r"rate must be in \[0, 1\]"),
            ({"rates": (-1e-3,)}, r"rate must be in \[0, 1\]"),
            ({"rates": (float("nan"),)}, r"rate must be in \[0, 1\]"),
        ],
    )
    def test_rejected_before_maps_are_prepared(self, run, kwargs, match):
        with pytest.raises(ValueError, match=match):
            run(self.FLAT_MAP, **kwargs)

    def test_fractional_trials_is_a_value_error(self):
        fmap = np.arange(2 * 4 * 8, dtype=np.int64).reshape(2, 4, 8)
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_campaign([fmap], trials=1.5)


class TestRaw16IsIntervalOne:
    """Raw16 words read through the interval-1 container are exactly the
    words ``inject_words`` corrupts, draw for draw."""

    @pytest.mark.parametrize("word_ecc", [False, True])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("model", ["flip1", "burst4"])
    def test_corrupt_protected_read_matches_inject_words(self, word_ecc, signed, model):
        rng = _rng("raw16-identity", word_ecc, signed, model)
        fmap = rng.integers(-300 if signed else 0, 300, size=(3, 6, 16))
        words = planar_order(fmap)
        policy = ProtectionPolicy("raw16", word_ecc=word_ecc, keyframe_interval=1)
        pmap = store_protected(fmap, policy)
        assert pmap.signed == signed
        rate = 2e-2

        observed, report, faults = corrupt_protected_read(
            pmap, rate, fault_model(model), _rng("draw", word_ecc, signed, model)
        )

        draw = _rng("draw", word_ecc, signed, model)
        if word_ecc:
            codes = secded_encode(words, 16, signed=signed)
            corrupted, want_faults = inject_words(
                codes, rate, fault_model(model), draw, width=codeword_bits(16)
            )
            want, want_report = secded_decode(corrupted, 16, signed=signed)
            assert report.corrected == want_report.corrected
            assert report.detected == want_report.detected
            want_flags = want_report.detected_mask
        else:
            want, want_faults = inject_words(
                words, rate, fault_model(model), draw, signed=signed
            )
            want_flags = np.zeros(words.size, dtype=bool)
        assert faults == want_faults > 0
        assert np.array_equal(planar_order(observed), want)
        assert np.array_equal(planar_order(report.flagged_mask), want_flags)
