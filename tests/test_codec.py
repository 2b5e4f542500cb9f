"""Tests for the bitstream codecs: round-trips and size agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.codec import CHECKSUM_BITS, GroupCodec
from repro.compression.schemes import RLEZero
from repro.core.deltas import spatial_deltas
from repro.core.precision import group_precisions
from repro.weights import MSRCodec
from tests.oracles import BitReader, BitWriter, rlez_decode, rlez_encode


class TestBitIO:
    def test_roundtrip_values(self):
        writer = BitWriter()
        writer.write(5, 4)
        writer.write(1023, 10)
        writer.write(0, 3)
        reader = BitReader(writer.getvalue())
        assert reader.read(4) == 5
        assert reader.read(10) == 1023
        assert reader.read(3) == 0

    def test_write_range_checked(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(16, 4)
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_reader_eof(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    @given(st.lists(st.tuples(st.integers(0, 2**12 - 1), st.just(12)), max_size=40))
    @settings(max_examples=40)
    def test_many_fields_roundtrip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read(width) == value


class TestGroupCodec:
    @given(
        st.lists(st.integers(0, 32767), min_size=1, max_size=120),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=60)
    def test_unsigned_roundtrip(self, values, group):
        codec = GroupCodec(group_size=group, signed=False)
        arr = np.array(values)
        encoded = codec.encode(arr)
        assert np.array_equal(codec.decode(encoded), arr)

    @given(
        st.lists(st.integers(-32768, 32767), min_size=1, max_size=120),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=60)
    def test_signed_roundtrip(self, values, group):
        codec = GroupCodec(group_size=group, signed=True)
        arr = np.array(values)
        encoded = codec.encode(arr)
        assert np.array_equal(codec.decode(encoded), arr)

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=100))
    @settings(max_examples=40)
    def test_bits_match_accounting(self, values):
        codec = GroupCodec(group_size=16, signed=True)
        arr = np.array(values)
        encoded = codec.encode(arr)
        assert encoded.bits == group_precisions(arr, 16, signed=True).total_bits

    def test_real_trace_deltas_roundtrip(self, dncnn_trace):
        layer = dncnn_trace[3]
        deltas = np.clip(spatial_deltas(layer.imap), -(1 << 15), (1 << 15) - 1)
        flat = deltas.reshape(-1)[:4096]
        codec = GroupCodec(signed=True)
        encoded = codec.encode(flat)
        assert np.array_equal(codec.decode(encoded), flat)
        # Real deltas compress well below 16 bits/value.
        assert encoded.bits / flat.size < 12


class TestRLEZeroCodec:
    """The RLEz wire format (the oracle in ``tests/oracles/codecs.py``) is
    decodable and costs exactly what ``RLEZero.encoded_bits`` charges."""

    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(-32768, 32767)),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=60)
    def test_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(rlez_decode(rlez_encode(arr)), arr)

    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(-100, 100)),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=40)
    def test_bits_match_accounting(self, values):
        arr = np.array(values, dtype=np.int64)
        encoded = rlez_encode(arr)
        scheme_bits = RLEZero().encoded_bits(arr.reshape(1, 1, -1))
        assert encoded.bits == scheme_bits

    def test_long_zero_runs(self):
        arr = np.array([0] * 100 + [7] + [0] * 33, dtype=np.int64)
        encoded = rlez_encode(arr)
        assert np.array_equal(rlez_decode(encoded), arr)

    def test_sparse_beats_dense(self):
        sparse = rlez_encode(np.array([0] * 60 + [5] * 4, dtype=np.int64))
        dense = rlez_encode(np.arange(1, 65, dtype=np.int64))
        assert sparse.bits < dense.bits


class TestInputValidation:
    """Adversarial inputs must fail with uniform ``ValueError``s (or round
    trip cleanly) — never leak numpy shape/dtype tracebacks."""

    CODECS = [GroupCodec(signed=True), GroupCodec(signed=False)]

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: GroupCodec(2.5), "group_size"),
            (lambda: GroupCodec(16.0), "group_size"),
            (lambda: GroupCodec(True), "group_size"),
            (lambda: MSRCodec(column_size=2.5), "column_size"),
            (lambda: MSRCodec(bits=8.0), "bits"),
            (lambda: MSRCodec(max_msr=4.0), "max_msr"),
        ],
        ids=["group-2.5", "group-16.0", "group-bool", "msr-column", "msr-bits", "msr-run"],
    )
    def test_rejects_non_integral_geometry(self, make, name):
        # Caught at construction, naming the parameter — not as a
        # TypeError deep inside the first encode, and never silently
        # truncated to a narrower geometry.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make()

    @pytest.mark.parametrize("group_size", [0, -1, 1.5, True])
    def test_group_size_must_be_a_positive_integer(self, group_size):
        with pytest.raises(ValueError, match="group_size"):
            GroupCodec(group_size=group_size)

    @pytest.mark.parametrize("column_size", [0, -1, 1.5, True])
    def test_column_size_must_be_a_positive_integer(self, column_size):
        with pytest.raises(ValueError, match="column_size"):
            MSRCodec(column_size=column_size)

    def test_numpy_integer_geometry_accepted(self):
        codec = GroupCodec(np.int64(16), signed=True)
        values = np.arange(-20, 20)
        assert np.array_equal(codec.decode(codec.encode(values)), values)
        msr = MSRCodec(np.int32(8), np.uint8(4), np.int64(16))
        assert (msr.bits, msr.max_msr, msr.column_size) == (8, 4, 16)

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: type(c).__name__)
    def test_rejects_garbage_inputs(self, codec):
        bad_inputs = [
            np.array(5),                        # 0-d scalar
            np.array([1.5, 2.25]),              # non-integral floats
            np.array([np.nan, 1.0]),            # NaN
            np.array([np.inf]),                 # infinity
            np.array([1 << 20]),                # exceeds 16-bit storage
            np.array(["a", "b"]),               # wrong dtype kind
            [[1, 2], [3]],                      # ragged nested list
        ]
        for values in bad_inputs:
            with pytest.raises(ValueError):
                codec.encode(values)

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: type(c).__name__)
    def test_integral_floats_round_trip(self, codec):
        signed = getattr(codec, "signed", True)
        values = np.array([0.0, 1.0, -3.0 if signed else 3.0, 100.0])
        encoded = codec.encode(values)
        assert np.array_equal(codec.decode(encoded), values.astype(np.int64))

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: type(c).__name__)
    def test_empty_stream_round_trips(self, codec):
        encoded = codec.encode(np.array([], dtype=np.int64))
        assert encoded.values == 0
        assert codec.decode(encoded).size == 0

    @given(
        values=st.lists(st.integers(-32768, 32767), min_size=1, max_size=64),
        cut=st.integers(1, 8),
    )
    @settings(max_examples=40)
    def test_truncated_streams_raise_uniformly(self, values, cut):
        """Chopping bytes off a stream must surface as ValueError in strict
        mode and decode (zero-padded) without raising in lenient mode."""
        codec = GroupCodec(group_size=16, signed=True)
        encoded = codec.encode(np.array(values))
        truncated = type(encoded)(
            data=encoded.data[: max(0, len(encoded.data) - cut)],
            bits=encoded.bits,
            values=encoded.values,
        )
        with pytest.raises(ValueError):
            codec.decode(truncated)
        lenient = codec.decode(truncated, strict=False)
        assert lenient.shape == (len(values),)

    def test_negative_metadata_rejected(self):
        codec = GroupCodec(signed=True)
        encoded = codec.encode(np.array([1, 2, 3]))
        bad = type(encoded)(data=encoded.data, bits=-1, values=encoded.values)
        with pytest.raises(ValueError):
            codec.decode(bad)

    @pytest.mark.parametrize(
        "codec",
        [GroupCodec(signed=True), GroupCodec(signed=True, checksum=True), MSRCodec()],
        ids=["group", "group-crc", "msr"],
    )
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "field, value",
        [("values", -3), ("bits", -1), ("values", 2.0), ("bits", 8.5), ("values", True)],
    )
    def test_bad_container_counts_rejected_in_both_modes(
        self, codec, strict, field, value
    ):
        # Lenient decodes tolerate damaged payloads, not a malformed
        # container: a negative or non-integer count is named up front
        # instead of decoding to an empty array or a numpy traceback.
        encoded = codec.encode(np.array([1, -2, 3, 0, 5]))
        counts = {"bits": encoded.bits, "values": encoded.values, field: value}
        bad = type(encoded)(data=encoded.data, **counts)
        with pytest.raises(ValueError, match=f"encoded.{field} must be"):
            codec.decode(bad, strict=strict)

    @pytest.mark.parametrize(
        "codec", [GroupCodec(signed=True), MSRCodec()],
        ids=["group", "msr"],
    )
    def test_only_strict_decodes_check_the_buffer_length(self, codec):
        encoded = codec.encode(np.arange(-40, 40))
        short = type(encoded)(
            data=encoded.data[:-3], bits=encoded.bits, values=encoded.values
        )
        with pytest.raises(ValueError, match="truncated"):
            codec.decode(short)
        assert codec.decode(short, strict=False).shape == (80,)

    def test_msr_column_size_bounded_by_exact_combine(self):
        assert MSRCodec(column_size=(1 << 24) - 1).column_size == (1 << 24) - 1
        with pytest.raises(ValueError, match="column_size must be below 2\\^24"):
            MSRCodec(column_size=1 << 24)


def _flip_stream_bit(encoded, bit):
    """Flip one bit (MSB-first position) of an Encoded payload."""
    data = bytearray(encoded.data)
    data[bit // 8] ^= 0x80 >> (bit % 8)
    return type(encoded)(data=bytes(data), bits=encoded.bits, values=encoded.values)


class TestChecksummedGroupCodec:
    """CRC-8 per group: the detection rung of the protection ladder."""

    @given(
        st.lists(st.integers(-32768, 32767), min_size=1, max_size=120),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=40)
    def test_clean_roundtrip_and_no_flags(self, values, group):
        codec = GroupCodec(group_size=group, signed=True, checksum=True)
        arr = np.array(values)
        encoded = codec.encode(arr)
        decoded, flagged = codec.decode_flagged(encoded)
        assert np.array_equal(decoded, arr)
        assert flagged == ()

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_checksum_overhead_is_8_bits_per_group(self, values):
        arr = np.array(values)
        plain = GroupCodec(group_size=16, signed=True).encode(arr)
        summed = GroupCodec(group_size=16, signed=True, checksum=True).encode(arr)
        groups = -(-arr.size // 16)
        assert summed.bits == plain.bits + groups * CHECKSUM_BITS

    def test_payload_flip_flags_exactly_that_group(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(-500, 500, size=64)
        codec = GroupCodec(group_size=16, signed=True, checksum=True)
        encoded = codec.encode(arr)
        # Bit just past group 0's header lands in its first value: the
        # stream stays aligned, so only group 0 should degrade.
        corrupt = _flip_stream_bit(encoded, 4 + 1)
        decoded, flagged = codec.decode_flagged(corrupt, strict=False)
        assert flagged == (0,)
        assert np.all(decoded[:16] == 0), "rejected group must zero-fill"
        assert np.array_equal(decoded[16:], arr[16:]), "later groups intact"

    def test_strict_decode_raises_on_mismatch(self):
        arr = np.arange(-32, 32)
        codec = GroupCodec(group_size=16, signed=True, checksum=True)
        corrupt = _flip_stream_bit(codec.encode(arr), 4 + 1)
        with pytest.raises(ValueError, match="checksum"):
            codec.decode(corrupt)

    def test_header_flip_flags_the_whole_tail(self):
        """A corrupted width header desynchronizes every later group; the
        decoder must flag the full tail instead of trusting CRC coin flips."""
        rng = np.random.default_rng(1)
        arr = rng.integers(-500, 500, size=96)
        codec = GroupCodec(group_size=16, signed=True, checksum=True)
        encoded = codec.encode(arr)
        decoded, flagged = codec.decode_flagged(
            _flip_stream_bit(encoded, 0), strict=False
        )
        groups = -(-arr.size // 16)
        assert flagged, "header damage must be detected"
        assert flagged == tuple(range(flagged[0], groups)), (
            "desync must flag a contiguous tail"
        )
        for g in flagged:
            assert np.all(decoded[g * 16 : (g + 1) * 16] == 0)

    def test_suspect_bits_overrides_a_passing_crc(self):
        """Known-damaged bit ranges flag their groups even when the CRC
        happens to pass (the 2^-8 escape path)."""
        arr = np.arange(-32, 32)
        codec = GroupCodec(group_size=16, signed=True, checksum=True)
        encoded = codec.encode(arr)
        decoded, flagged = codec.decode_flagged(
            encoded, strict=False, suspect_bits=((0, 1),)
        )
        assert flagged == (0,)
        assert np.all(decoded[:16] == 0)
        assert np.array_equal(decoded[16:], arr[16:])

    def test_without_checksum_flags_stay_empty(self):
        arr = np.arange(-32, 32)
        codec = GroupCodec(group_size=16, signed=True)
        decoded, flagged = codec.decode_flagged(codec.encode(arr))
        assert flagged == ()
        assert np.array_equal(decoded, arr)
