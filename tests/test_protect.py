"""Tests for the error-protection layer (:mod:`repro.protect`).

The load-bearing properties, in ladder order:

- SECDED corrects *every* single-bit flip and detects *every* double-bit
  flip — proven exhaustively at small widths and over exhaustive flip
  pairs of sampled 16-bit words.
- The keyframe mechanism's endpoints are byte-identical to the paper's
  storage formats: ``K=1`` *is* Raw16 word storage, ``K=None`` *is* the
  DeltaD16 stream.
- The recovery ladder never lies: damage it cannot repair is flagged,
  and corruption outside the flagged mask (silent corruption) is zero
  for the checksummed policies under the injected fault classes.
- Protected reads bound error runs to the keyframe interval when the
  anchors are ECC-protected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.codec import GroupCodec
from repro.compression.schemes import SCHEMES, planar_order
from repro.core.deltas import spatial_deltas
from repro.faults import inject_words, run_protected_campaign
from repro.faults.metrics import corruption_metrics
from repro.protect import (
    PROTECTION_POLICIES,
    ProtectionPolicy,
    codeword_bits,
    parity_bits,
    protected_bits,
    protection_policy,
    read_protected,
    secded_decode,
    secded_encode,
    store_protected,
)
from repro.utils.rng import rng_for

SEED = 0x5ECDED


def _rng(*keys):
    return rng_for(SEED, "test-protect", *keys)


def _smooth_map(rng, c=3, h=10, w=24):
    """A signed integer map with delta statistics worth compressing."""
    return np.cumsum(rng.integers(-5, 6, size=(c, h, w)), axis=-1).astype(np.int64)


def _flip(codes, word_index, bit, width):
    out = np.asarray(codes).copy()
    assert 0 <= bit < width
    out[word_index] ^= np.int64(1) << bit
    return out


class TestSecded:
    @pytest.mark.parametrize("width", [4, 8])
    def test_every_single_flip_corrected_exhaustive(self, width):
        """All values x all single-bit flips: data always recovered."""
        n = codeword_bits(width)
        values = np.arange(1 << width)
        codes = secded_encode(values, width)
        for bit in range(n):
            corrupted = codes ^ (np.int64(1) << bit)
            decoded, report = secded_decode(corrupted, width)
            assert np.array_equal(decoded, values), f"bit {bit} not corrected"
            assert report.detected == 0
            # Flipping the overall parity bit leaves the data intact but
            # still presents as a correctable event.
            assert report.corrected == values.size

    @pytest.mark.parametrize("width", [4, 8])
    def test_every_double_flip_detected_exhaustive(self, width):
        """All values x all C(n,2) double flips: detected, zeroed, flagged."""
        n = codeword_bits(width)
        values = np.arange(1 << width)
        codes = secded_encode(values, width)
        for b1 in range(n):
            for b2 in range(b1 + 1, n):
                corrupted = codes ^ ((np.int64(1) << b1) | (np.int64(1) << b2))
                decoded, report = secded_decode(corrupted, width)
                assert report.detected == values.size, f"flips ({b1},{b2}) missed"
                assert report.corrected == 0
                assert np.all(decoded == 0), "detected words must zero-fill"
                assert report.detected_mask.all()

    def test_width16_sampled_words_exhaustive_flips(self):
        """Width-16 words: exhaustive single and double flips over samples."""
        n = codeword_bits(16)
        rng = _rng("w16")
        values = np.concatenate(
            [
                np.array([-32768, -1, 0, 1, 32767]),
                rng.integers(-32768, 32768, size=27),
            ]
        )
        codes = secded_encode(values, 16, signed=True)
        for b1 in range(n):
            one = codes ^ (np.int64(1) << b1)
            decoded, report = secded_decode(one, 16, signed=True)
            assert np.array_equal(decoded, values)
            assert report.detected == 0
            for b2 in range(b1 + 1, n):
                two = one ^ (np.int64(1) << b2)
                _, report2 = secded_decode(two, 16, signed=True)
                assert report2.detected == values.size

    def test_clean_roundtrip_and_layout(self):
        assert parity_bits(16) == 6
        assert codeword_bits(16) == 22
        values = np.arange(-100, 100)
        decoded, report = secded_decode(
            secded_encode(values, 16, signed=True), 16, signed=True
        )
        assert np.array_equal(decoded, values)
        assert report.corrected == 0 and report.detected == 0

    def test_unsigned_rejects_negative(self):
        with pytest.raises(ValueError):
            secded_encode(np.array([-1]), 16, signed=False)


class TestKeyframeEndpoints:
    """K interpolates DeltaD16 (K=None) <-> Raw16 (K=1), byte-identically."""

    @pytest.fixture(scope="class")
    def fmap(self):
        return _smooth_map(_rng("endpoints"))

    def test_k1_is_raw16_word_storage(self, fmap):
        policy = ProtectionPolicy("k1", keyframe_interval=1)
        pmap = store_protected(fmap, policy)
        # Every position is an anchor: the anchor array IS the raw planar
        # word array and the delta stream is empty.
        assert np.array_equal(pmap.anchors, planar_order(fmap))
        assert pmap.stream.values == 0
        assert pmap.stream.bits == 0
        assert pmap.stored_bits == fmap.size * 16
        observed, report = read_protected(pmap)
        assert np.array_equal(observed, fmap)
        assert not report.flagged_mask.any()

    def test_kinf_is_deltad16_stream(self, fmap):
        pmap = store_protected(fmap, protection_policy("none"))
        plain = GroupCodec(group_size=16, signed=True).encode(
            planar_order(spatial_deltas(fmap))
        )
        assert pmap.anchors.size == 0
        assert pmap.stream.data == plain.data, "stream must be byte-identical"
        assert pmap.stream.bits == plain.bits
        assert pmap.stored_bits == plain.bits

    @pytest.mark.parametrize("name", sorted(PROTECTION_POLICIES))
    def test_clean_roundtrip_all_stock_policies(self, fmap, name):
        pmap = store_protected(fmap, protection_policy(name))
        observed, report = read_protected(pmap)
        assert np.array_equal(observed, fmap)
        assert report.corrected == 0 and report.detected == 0
        assert not report.flagged_mask.any()

    @pytest.mark.parametrize("name", sorted(PROTECTION_POLICIES))
    def test_accounting_matches_stored_bits(self, fmap, name):
        policy = protection_policy(name)
        pmap = store_protected(fmap, policy)
        assert pmap.stored_bits == protected_bits(fmap, policy)

    def test_unsigned_maps_roundtrip(self):
        fmap = np.abs(_smooth_map(_rng("unsigned")))
        for name in ("none", "ecc", "full"):
            pmap = store_protected(fmap, protection_policy(name))
            observed, _ = read_protected(pmap)
            assert np.array_equal(observed, fmap)


class TestRecoveryLadder:
    @pytest.fixture(scope="class")
    def fmap(self):
        return _smooth_map(_rng("ladder"))

    def test_anchor_single_flip_corrected(self, fmap):
        pmap = store_protected(fmap, protection_policy("full"))
        observed, report = read_protected(
            pmap, anchor_hook=lambda a: _flip(a, 3, 7, pmap.anchor_width)
        )
        assert np.array_equal(observed, fmap)
        assert report.corrected == 1
        assert not report.flagged_mask.any()

    def test_anchor_double_flip_flagged_not_silent(self, fmap):
        pmap = store_protected(fmap, protection_policy("full"))
        observed, report = read_protected(
            pmap,
            anchor_hook=lambda a: _flip(_flip(a, 3, 7, 22), 3, 12, 22),
        )
        assert report.detected == 1
        wrong = observed != fmap
        assert not (wrong & ~report.flagged_mask).any(), "silent corruption"
        # Damage is bounded by the keyframe interval.
        k = protection_policy("full").keyframe_interval
        assert corruption_metrics(fmap, observed).max_run_length <= k

    def test_stream_damage_flagged_not_silent(self, fmap):
        pmap = store_protected(fmap, protection_policy("full"))
        rng = _rng("stream-hit")

        def hit_chunks(codes):
            out = np.asarray(codes).copy()
            idx = rng.integers(0, out.size, size=3)
            for i in idx:  # double flips: past ECC, into the checksum
                out[i] ^= np.int64(1) << int(rng.integers(0, 22))
                out[i] ^= np.int64(1) << int(rng.integers(0, 22))
            return out

        observed, report = read_protected(pmap, stream_hook=hit_chunks)
        wrong = observed != fmap
        assert not (wrong & ~report.flagged_mask).any(), "silent corruption"

    def test_randomized_no_silent_sweep(self, fmap):
        """Randomized anchor+stream hits: the full ladder never goes silent
        and measured error runs stay within the keyframe interval."""
        policy = protection_policy("full")
        pmap = store_protected(fmap, policy)
        k = policy.keyframe_interval
        for trial in range(40):
            rng = _rng("sweep", trial)

            def anchors(a, rng=rng):
                return _flip(a, int(rng.integers(0, a.size)), int(rng.integers(0, 22)), 22)

            def chunks(c, rng=rng):
                out = np.asarray(c).copy()
                i = int(rng.integers(0, out.size))
                for _ in range(int(rng.integers(1, 3))):
                    out[i] ^= np.int64(1) << int(rng.integers(0, 22))
                return out

            observed, report = read_protected(pmap, anchor_hook=anchors, stream_hook=chunks)
            wrong = observed != fmap
            assert not (wrong & ~report.flagged_mask).any(), f"silent at trial {trial}"
            assert corruption_metrics(fmap, observed).max_run_length <= k


class TestMemoryEcc:
    """Raw16+ECC memory words are the interval-1 ``ecc`` container."""

    POLICY = ProtectionPolicy("raw16-ecc", word_ecc=True, keyframe_interval=1)

    def test_single_flip_in_word_codeword_corrected(self):
        words = np.arange(-50, 50).reshape(1, 4, 25)
        pmap = store_protected(words, self.POLICY)
        seen = {"n": 0}

        def hook(codes):
            seen["n"] += 1
            return _flip(codes, 5, 3, codeword_bits(16))

        observed, report = read_protected(pmap, anchor_hook=hook)
        assert np.array_equal(observed, words), (
            "ECC word storage must correct the single flipped bit"
        )
        assert report.corrected == 1
        assert seen["n"] == 1, "hook must see codewords exactly once"

    def test_double_flip_zero_fills_and_flags_one_word(self):
        words = np.arange(100).reshape(1, 4, 25)
        pmap = store_protected(words, self.POLICY)
        observed, report = read_protected(
            pmap, anchor_hook=lambda codes: _flip(_flip(codes, 7, 1, 22), 7, 9, 22)
        )
        assert report.detected == 1
        assert observed.reshape(-1)[7] == 0
        # Interval 1: the flag covers exactly the damaged word.
        assert np.flatnonzero(report.flagged_mask).tolist() == [7]


class TestProtectedSchemes:
    def test_registered_and_priced(self):
        fmap = _smooth_map(_rng("schemes"))
        raw_bits = fmap.size * 16
        assert SCHEMES["Raw16-ECC"].encoded_bits(fmap) == fmap.size * codeword_bits(16)
        protected = SCHEMES["DeltaD16-P"].encoded_bits(fmap)
        plain = SCHEMES["DeltaD16"].encoded_bits(fmap)
        assert plain < protected < raw_bits * codeword_bits(16) / 16, (
            "the full ladder must cost more than DeltaD16 but less than raw ECC"
        )


class TestProtectedCampaign:
    @pytest.fixture(scope="class")
    def fmaps(self):
        return [_smooth_map(_rng("campaign"))]

    @pytest.fixture(scope="class")
    def rows(self, fmaps):
        return run_protected_campaign(
            fmaps,
            configs=(("Raw16", "none"), ("Raw16", "ecc"), ("DeltaD16", "full")),
            rates=(1e-4, 1e-3),
            fault_models=("flip1",),
            trials=2,
            seed=SEED,
        )

    def test_bit_deterministic(self, fmaps, rows):
        again = run_protected_campaign(
            fmaps,
            configs=(("Raw16", "none"), ("Raw16", "ecc"), ("DeltaD16", "full")),
            rates=(1e-4, 1e-3),
            fault_models=("flip1",),
            trials=2,
            seed=SEED,
        )
        assert rows == again

    def test_raw_ecc_has_zero_silent_under_single_flips(self, rows):
        for row in rows:
            if row.point.scheme == "Raw16" and row.point.policy == "ecc":
                assert row.silent_values == 0
                assert row.corrected == row.faults > 0

    def test_full_ladder_bounds_runs(self, rows):
        k = protection_policy("full").keyframe_interval
        for row in rows:
            if row.point.policy == "full":
                assert row.metrics.max_run_length <= k

    def test_overhead_ordering(self, rows):
        by_policy = {r.point.policy: r for r in rows if r.point.rate == 1e-3}
        assert by_policy["none"].overhead == pytest.approx(1.0)
        assert by_policy["ecc"].overhead == pytest.approx(22 / 16)
        assert by_policy["full"].overhead > 1.0

    def test_unsupported_scheme_rejected_before_any_config_runs(self):
        # A 2-D map fails when it is prepared; the scheme check comes first.
        with pytest.raises(ValueError, match="support Raw16 and DeltaD16"):
            run_protected_campaign(
                [np.zeros((4, 8), dtype=np.int64)],
                configs=(("Raw16", "none"), ("RawD16", "none")),
            )

    def test_custom_keyframe_policy_accepted(self, fmaps):
        policy = ProtectionPolicy(
            "kf4", word_ecc=True, group_checksum=True, keyframe_interval=4
        )
        (row,) = run_protected_campaign(
            fmaps,
            configs=(("DeltaD16", policy),),
            rates=(1e-4,),
            fault_models=("flip1",),
            trials=1,
            seed=SEED,
        )
        assert row.point.policy == "kf4"
        assert row.metrics.max_run_length <= 4


class TestInjectorCompat:
    def test_inject_words_hits_codeword_width(self):
        """Campaign anchors are injected at the stored codeword width."""
        from repro.faults import fault_model

        codes = secded_encode(np.arange(256), 16)
        corrupted, events = inject_words(
            codes, 1e-2, fault_model("flip1"), _rng("inject"), width=22
        )
        assert events > 0
        assert (corrupted != codes).sum() <= events
        assert corrupted.max() < (1 << 22)
