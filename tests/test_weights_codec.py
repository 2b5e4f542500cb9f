"""MSR weight-codec property suite: byte-identity with the
value-at-a-time spec in ``tests/oracles``, random widths and
compensation densities, and corruption/truncation lenient-decode flags
matching the activation codecs' semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import timing
from repro.weights import MSRCodec
from tests import oracles


def _spec(codec):
    """The codec's parameters, in the oracle functions' argument order."""
    return codec.bits, codec.max_msr, codec.column_size, codec.checksum


def _outcome(fn):
    """Result or (ValueError-type, message) — so strict failures compare."""
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("raise", str(exc))


@st.composite
def msr_config(draw):
    """A valid (bits, max_msr, column_size) triple.

    The constructor requires the run header's range to fit ``bits``
    (``2^RUN_BITS <= bits``) so corrupted headers stay decodable.
    """
    bits = draw(st.integers(3, 12))
    legal = [
        m
        for m in range(1, bits)
        if (1 << max(1, (m - 1).bit_length())) <= bits
    ]
    max_msr = draw(st.sampled_from(legal))
    column_size = draw(st.integers(1, 48))
    return bits, max_msr, column_size


@st.composite
def msr_stream(draw):
    """A codec config plus an in-range weight stream.

    Values mix a dense near-zero body with sparse outliers so the
    compensation path sees every density from 0% to saturating.
    """
    bits, max_msr, column_size = draw(msr_config())
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    near = st.integers(max(lo // 8, -8), min(hi // 8, 8))
    values = draw(
        st.lists(st.one_of(near, st.integers(lo, hi)), min_size=0, max_size=150)
    )
    return bits, max_msr, column_size, np.array(values, dtype=np.int64)


class TestMSRRoundtrip:
    @given(stream=msr_stream(), checksum=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_streams_byte_identical_and_roundtrip(self, stream, checksum):
        bits, max_msr, column_size, arr = stream
        codec = MSRCodec(bits, max_msr, column_size, checksum=checksum)
        ref = oracles.msr_encode(arr, *_spec(codec))
        vec = codec.encode(arr)
        assert ref.data == vec.data
        assert (ref.bits, ref.values) == (vec.bits, vec.values)
        assert ref.bits == codec.encoded_bits(arr)
        dec_ref = oracles.msr_decode_flagged(ref, *_spec(codec))
        dec_vec = codec.decode_flagged(ref)
        assert np.array_equal(dec_ref[0], arr)
        assert np.array_equal(dec_vec[0], arr)
        assert dec_ref[1] == dec_vec[1] == ()

    @given(stream=msr_stream())
    @settings(max_examples=40, deadline=None)
    def test_coverage_and_layout_accounting(self, stream):
        bits, max_msr, column_size, arr = stream
        codec = MSRCodec(bits, max_msr, column_size)
        coverage = codec.coverage(arr)
        assert 0.0 <= coverage <= 1.0

    @given(stream=msr_stream())
    @settings(max_examples=40, deadline=None)
    def test_adaptive_beats_or_matches_worst_case(self, stream):
        """Encoded size is bounded by the run=1 layout: per-column header
        plus ``bits`` per weight — the no-compaction fallback."""
        bits, max_msr, column_size, arr = stream
        codec = MSRCodec(bits, max_msr, column_size)
        columns = -(-arr.size // column_size) if arr.size else 0
        worst = columns * (codec._head_bits + column_size * bits)
        assert codec.encoded_bits(arr) <= worst


class TestMSRCorruption:
    @given(
        stream=msr_stream(),
        checksum=st.booleans(),
        strict=st.booleans(),
        flips=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
        cut=st.integers(0, 6),
        suspect=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(1, 64)), max_size=3
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_corrupted_streams_agree(
        self, stream, checksum, strict, flips, cut, suspect
    ):
        """Bit flips, truncated tails, and suspect ranges must produce the
        same decoded arrays, the same flags, and the same strict errors."""
        bits, max_msr, column_size, arr = stream
        codec = MSRCodec(bits, max_msr, column_size, checksum=checksum)
        encoded = codec.encode(arr)
        raw = bytearray(encoded.data)
        for bit in flips:
            if raw:
                raw[(bit // 8) % len(raw)] ^= 0x80 >> (bit % 8)
        corrupt = type(encoded)(
            data=bytes(raw[: max(0, len(raw) - cut)]),
            bits=encoded.bits,
            values=encoded.values,
        )
        suspect_bits = tuple((lo, lo + span) for lo, span in suspect)
        kind_ref, res_ref = _outcome(
            lambda: oracles.msr_decode_flagged(
                corrupt, *_spec(codec), strict=strict, suspect_bits=suspect_bits
            )
        )
        kind_vec, res_vec = _outcome(
            lambda: codec.decode_flagged(
                corrupt, strict=strict, suspect_bits=suspect_bits
            )
        )
        assert kind_ref == kind_vec
        if kind_ref == "ok":
            assert np.array_equal(res_ref[0], res_vec[0])
            assert res_ref[1] == res_vec[1]
        else:
            assert res_ref == res_vec

    def test_checksum_flags_corrupt_column_leniently(self):
        codec = MSRCodec(8, 4, 16, checksum=True)
        arr = np.arange(-24, 24, dtype=np.int64)
        encoded = codec.encode(arr)
        raw = bytearray(encoded.data)
        raw[1] ^= 0x40
        corrupt = type(encoded)(data=bytes(raw), bits=encoded.bits, values=encoded.values)

        with pytest.raises(ValueError, match="checksum mismatch in column"):
            codec.decode(corrupt, strict=True)
        with pytest.raises(ValueError, match="checksum mismatch in column"):
            oracles.msr_decode_flagged(corrupt, *_spec(codec), strict=True)
        vals_ref, flags_ref = oracles.msr_decode_flagged(
            corrupt, *_spec(codec), strict=False
        )
        vals_vec, flags_vec = codec.decode_flagged(corrupt, strict=False)
        assert flags_ref == flags_vec
        assert 0 in flags_ref
        # Flagged columns zero-fill; clean columns survive exactly.
        assert np.array_equal(vals_ref, vals_vec)
        clean = np.ones(arr.size, dtype=bool)
        for g in flags_ref:
            clean[g * 16 : (g + 1) * 16] = False
        assert np.array_equal(vals_ref[clean], arr[clean])

    def test_truncation_without_checksum_keeps_partial_values(self):
        codec = MSRCodec(8, 4, 16)
        arr = np.arange(-24, 24, dtype=np.int64)
        encoded = codec.encode(arr)
        truncated = type(encoded)(
            data=encoded.data[: len(encoded.data) - 2],
            bits=encoded.bits,
            values=encoded.values,
        )

        # Strict decodes validate the container first, exactly like the
        # activation codecs' _check_encoded gate.
        with pytest.raises(ValueError, match="truncated"):
            codec.decode(truncated, strict=True)
        with pytest.raises(ValueError, match="truncated"):
            oracles.msr_decode_flagged(truncated, *_spec(codec), strict=True)
        vals_ref, flags_ref = oracles.msr_decode_flagged(
            truncated, *_spec(codec), strict=False
        )
        vals_vec, flags_vec = codec.decode_flagged(truncated, strict=False)
        assert np.array_equal(vals_ref, vals_vec)
        assert flags_ref == flags_vec == ()
        # The head of the stream survives; only the lost tail zero-fills.
        assert np.array_equal(vals_ref[:16], arr[:16])

    def test_suspect_bits_force_flag_overlapping_columns(self):
        codec = MSRCodec(8, 4, 8, checksum=True)
        arr = np.arange(-16, 16, dtype=np.int64)
        encoded = codec.encode(arr)

        vals_ref, flags_ref = oracles.msr_decode_flagged(
            encoded, *_spec(codec), strict=False, suspect_bits=((0, 4),)
        )
        vals_vec, flags_vec = codec.decode_flagged(
            encoded, strict=False, suspect_bits=((0, 4),)
        )
        assert flags_ref == flags_vec
        assert 0 in flags_ref
        assert np.array_equal(vals_ref, vals_vec)
        assert not vals_ref[:8].any()


class TestMSRValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="column_size"):
            MSRCodec(8, 4, 0)
        with pytest.raises(ValueError, match="bits"):
            MSRCodec(1, 1, 8)
        with pytest.raises(ValueError, match="max_msr"):
            MSRCodec(8, 8, 8)
        with pytest.raises(ValueError, match="run headers"):
            # max_msr 5 needs 3-bit headers naming runs up to 8, but a
            # corrupted header claiming run 7+ on 6-bit weights would
            # name a non-positive compact field.
            MSRCodec(6, 5, 8)

    def test_rejects_out_of_range_weights(self):
        codec = MSRCodec(8, 4, 8)
        with pytest.raises(ValueError, match="signed 8-bit"):
            codec.encode(np.array([300], dtype=np.int64))

    def test_empty_stream(self):
        codec = MSRCodec(8, 4, 8)
        empty = np.array([], dtype=np.int64)
        ref = oracles.msr_encode(empty, *_spec(codec))
        vec = codec.encode(empty)
        assert ref.data == vec.data == b""
        assert ref.bits == 0
        assert codec.coverage(empty) == 1.0
        dec_ref, _ = oracles.msr_decode_flagged(ref, *_spec(codec))
        assert dec_ref.size == codec.decode(ref).size == 0


class TestPerCodecStats:
    def test_weight_and_activation_streams_distinguishable(self):
        from repro.compression.codec import GroupCodec

        timing.reset("codec.")
        weights = np.arange(-8, 8, dtype=np.int64)
        activations = np.arange(32, dtype=np.int64)
        msr = MSRCodec(8, 4, 8)
        group = GroupCodec(group_size=16, signed=True)
        msr.decode(msr.encode(weights))
        group.decode(group.encode(activations))
        stats = timing.counter_values("codec.")
        assert stats["codec.weight.encodes"] == 1
        assert stats["codec.weight.decodes"] == 1
        assert stats["codec.weight.decoded_values"] == weights.size
        assert stats["codec.activation.encodes"] == 1
        assert stats["codec.activation.decoded_values"] == activations.size
        assert stats["codec.weight.encoded_bits"] > 0
        assert stats["codec.activation.encoded_bits"] > 0
        # Summed over families, both streams count.
        assert sum(v for k, v in stats.items() if k.endswith(".encodes")) == 2
        assert sum(v for k, v in stats.items() if k.endswith(".decodes")) == 2

    def test_snapshot_is_isolated_and_reset_clears(self):
        timing.reset("codec.")
        msr = MSRCodec(8, 4, 8)
        msr.encode(np.arange(-8, 8, dtype=np.int64))
        snapshot = timing.counter_values("codec.")
        snapshot["codec.weight.encodes"] = 999
        assert timing.counter_values()["codec.weight.encodes"] == 1
        timing.count("other.counter")
        timing.reset("codec.")
        assert timing.counter_values("codec.") == {}
        assert timing.counter_values()["other.counter"] == 1
        timing.reset("other.")
