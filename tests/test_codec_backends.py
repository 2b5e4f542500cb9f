"""Oracle-identity tests: the production codecs must be byte-identical
to the value-at-a-time spec in ``tests/oracles`` on every stream, flag,
and failure they produce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import term_maps
from repro.compression.codec import CHECKSUM_BITS, GroupCodec
from repro.core.layer_memo import clear_memos
from repro.core.precision import HEADER_BITS, group_precisions
from repro.faults.inject import inject_encoded
from repro.faults.models import BitFlip
from repro.protect.policy import ProtectionPolicy
from repro.protect.stream import read_protected, store_protected
from tests import oracles


def _outcome(fn):
    """Result or (ValueError-type, message) — so strict failures compare."""
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("raise", str(exc))


values_st = st.lists(st.integers(-32768, 32767), min_size=0, max_size=200)
unsigned_st = st.lists(st.integers(0, 32767), min_size=0, max_size=200)


class TestGroupCodecIdentity:
    @given(
        values=values_st,
        group=st.integers(1, 33),
        checksum=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_signed_streams_byte_identical(self, values, group, checksum):
        codec = GroupCodec(group_size=group, signed=True, checksum=checksum)
        arr = np.array(values, dtype=np.int64)
        ref = oracles.group_encode(arr, group, True, checksum)
        vec = codec.encode(arr)
        assert ref.data == vec.data
        assert (ref.bits, ref.values) == (vec.bits, vec.values)
        dec_ref = oracles.group_decode_flagged(ref, group, True, checksum)
        dec_vec = codec.decode_flagged(ref)
        assert np.array_equal(dec_ref[0], dec_vec[0])
        assert dec_ref[1] == dec_vec[1]

    @given(values=unsigned_st, group=st.sampled_from([4, 16]))
    @settings(max_examples=40, deadline=None)
    def test_unsigned_streams_byte_identical(self, values, group):
        codec = GroupCodec(group_size=group, signed=False)
        arr = np.array(values, dtype=np.int64)
        ref = oracles.group_encode(arr, group, False, False)
        vec = codec.encode(arr)
        assert ref.data == vec.data
        dec_ref, _ = oracles.group_decode_flagged(ref, group, False, False)
        assert np.array_equal(dec_ref, codec.decode(ref))

    @given(
        values=st.lists(st.integers(-32768, 32767), min_size=1, max_size=120),
        checksum=st.booleans(),
        strict=st.booleans(),
        flips=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
        cut=st.integers(0, 6),
        suspect=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(1, 64)), max_size=3
        ),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_corrupted_streams_agree(
        self, values, checksum, strict, flips, cut, suspect, data
    ):
        """Bit flips, truncated tails, and suspect ranges must produce the
        same decoded arrays, the same flags, and the same strict errors."""
        codec = GroupCodec(group_size=16, signed=True, checksum=checksum)
        encoded = codec.encode(np.array(values, dtype=np.int64))
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
            lambda: oracles.group_decode_flagged(
                corrupt, 16, True, checksum, strict=strict, suspect_bits=suspect_bits
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


def _assert_group_decodes_agree(codec, encoded, strict, suspect_bits=()):
    """Production and spec agree on values, flags and strict errors."""
    kind_ref, res_ref = _outcome(
        lambda: oracles.group_decode_flagged(
            encoded, codec.group_size, codec.signed, codec.checksum,
            strict=strict, suspect_bits=suspect_bits,
        )
    )
    kind_vec, res_vec = _outcome(
        lambda: codec.decode_flagged(encoded, strict=strict, suspect_bits=suspect_bits)
    )
    assert kind_ref == kind_vec, (kind_ref, res_ref, kind_vec, res_vec)
    if kind_ref == "ok":
        assert np.array_equal(res_ref[0], res_vec[0])
        assert res_ref[1] == res_vec[1]
    else:
        assert res_ref == res_vec


def _sparse_wide_deltas(rng, size):
    """Mostly 2-bit deltas with about one 16-bit outlier per 100 values.

    Most groups are narrow and about one in seven is wide, so the walk
    both runs long and meets maximal-width groups near every cut.
    """
    deltas = rng.integers(-2, 2, size=size)
    wide = rng.random(size) < 0.01
    deltas[wide] = rng.integers(-32768, 32768, size=int(wide.sum()))
    return deltas


class TestGroupCodecUnitWalk:
    """The decoder walks group headers in ``gcd(4, group_size)``-bit units
    while a maximal-width group still fits, then hands the last groups
    to a loop that checks every field against the buffer end.  Streams
    long enough to take both loops must still decode exactly as the
    spec does."""

    @given(
        values=st.lists(
            st.one_of(st.integers(-32768, 32767), st.integers(-8, 8)),
            min_size=200,
            max_size=400,
        ),
        group=st.sampled_from([1, 2, 3, 4, 6, 8, 16, 33]),
        checksum=st.booleans(),
        strict=st.booleans(),
        flips=st.lists(st.integers(0, 20_000), max_size=4),
        cut=st.integers(0, 40),
        suspect=st.lists(
            st.tuples(st.integers(0, 8000), st.integers(1, 64)), max_size=2
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_streams_agree_across_units(
        self, values, group, checksum, strict, flips, cut, suspect
    ):
        codec = GroupCodec(group_size=group, signed=True, checksum=checksum)
        arr = np.array(values, dtype=np.int64)
        encoded = codec.encode(arr)
        assert encoded.data == oracles.group_encode(arr, group, True, checksum).data
        raw = bytearray(encoded.data)
        for bit in flips:
            raw[(bit // 8) % len(raw)] ^= 0x80 >> (bit % 8)
        corrupt = type(encoded)(
            data=bytes(raw[: max(0, len(raw) - cut)]),
            bits=encoded.bits,
            values=encoded.values,
        )
        suspect_bits = tuple((lo, lo + span) for lo, span in suspect)
        _assert_group_decodes_agree(codec, corrupt, strict, suspect_bits)

    @pytest.mark.parametrize("checksum", [False, True])
    def test_every_cut_and_header_flip_agrees(self, checksum):
        """Cut a stream at every byte offset (strict and lenient), and flip
        the first and last header bit of every group: each moves the
        hand-off between the two loops or desynchronizes the walk.

        The spec decodes one field at a time and every cut decodes the
        prefix again, so the cost grows with the square of the stream
        length; 1,024 values (64 groups) keeps it to seconds.
        """
        codec = GroupCodec(group_size=16, signed=True, checksum=checksum)
        arr = _sparse_wide_deltas(np.random.default_rng(24), 1024)
        encoded = codec.encode(arr)
        make = type(encoded)
        for end in range(len(encoded.data) + 1):
            cut = make(data=encoded.data[:end], bits=encoded.bits, values=encoded.values)
            _assert_group_decodes_agree(codec, cut, strict=False)
            # A container whose bit count matches the cut passes the
            # strict buffer check, so the decoder itself must raise.
            _assert_group_decodes_agree(
                codec, make(data=cut.data, bits=8 * end, values=cut.values), strict=True
            )
        widths = np.asarray(group_precisions(arr, 16, signed=True).precisions)
        spans = HEADER_BITS + 16 * widths + (CHECKSUM_BITS if checksum else 0)
        starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        for bit in (starts[:, None] + [0, HEADER_BITS - 1]).ravel().tolist():
            raw = bytearray(encoded.data)
            raw[bit // 8] ^= 0x80 >> (bit % 8)
            flipped = make(data=bytes(raw), bits=encoded.bits, values=encoded.values)
            _assert_group_decodes_agree(codec, flipped, strict=False)
            _assert_group_decodes_agree(codec, flipped, strict=True)


class TestCRC8:
    @given(bits=st.lists(st.integers(0, 1), max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_table_driven_matches_bitwise(self, bits):
        assert oracles.crc8_bits(bits) == oracles.crc8_bits_bitwise(bits)

    def test_table_is_the_shift_register(self):
        table = oracles.crc8_table()
        assert len(table) == 256
        assert table[0] == 0
        # One-byte message: LUT pass must equal eight bitwise steps.
        assert oracles.crc8_bits([1, 0, 1, 1, 0, 0, 1, 0]) == table[0b10110010]


class TestLowering:
    def test_repeat_evaluations_reuse_lowered_artifacts(self, dncnn_trace):
        layer = dncnn_trace[2]
        clear_memos()
        term_maps.reset_lowering_stats()

        def lowered():
            return (
                term_maps.padded_imap(layer),
                term_maps.raw_term_map(layer),
                term_maps.delta_term_map(layer),
            )

        first = lowered()
        computed_once = term_maps.lowering_stats()["computed"]
        # A second evaluation of the same layer recomputes nothing.
        second = lowered()
        stats = term_maps.lowering_stats()
        assert stats["computed"] == computed_once
        assert stats["reused"] >= 3
        for a, b in zip(first, second):
            assert a is b
            assert not a.flags.writeable

    def test_group_geometry_memoized(self, dncnn_trace):
        layer = dncnn_trace[2]
        clear_memos()
        geo = term_maps.group_geometry(layer, 16)
        assert geo is term_maps.group_geometry(layer, 16, signed=False)

    def test_delta_term_map_validates_axis(self, dncnn_trace):
        with pytest.raises(ValueError, match="axis"):
            term_maps.delta_term_map(dncnn_trace[0], axis="z")


class TestDownstreamIdentity:
    """The fault injector and protection ladder must see the same streams
    and decodes from production as from the spec."""

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_inject_encoded_identical(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(-500, 500, size=96)
        codec = GroupCodec(group_size=16, signed=True, checksum=True)

        def run(encoded, decode):
            hit, faults = inject_encoded(
                encoded, 0.01, BitFlip(1), np.random.default_rng(seed)
            )
            decoded, flagged = decode(hit)
            return hit.data, faults, decoded, flagged

        ref = run(
            oracles.group_encode(arr, 16, True, True),
            lambda hit: oracles.group_decode_flagged(hit, 16, True, True, strict=False),
        )
        vec = run(codec.encode(arr), lambda hit: codec.decode_flagged(hit, strict=False))
        assert ref[0] == vec[0]
        assert ref[1] == vec[1]
        assert np.array_equal(ref[2], vec[2])
        assert ref[3] == vec[3]

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_protected_roundtrip_identical(self, seed):
        rng = np.random.default_rng(seed)
        fmap = rng.integers(0, 800, size=(2, 6, 40))
        policy = ProtectionPolicy(
            "full",
            word_ecc=True,
            stream_ecc=True,
            group_checksum=True,
            keyframe_interval=8,
        )
        pmap = store_protected(fmap, policy)
        # The stored stream is exactly what the spec writes for the same
        # delta payload, and the spec reads the same payload back out.
        payload, flagged = oracles.group_decode_flagged(pmap.stream, 16, True, True)
        assert flagged == ()
        assert oracles.group_encode(payload, 16, True, True) == pmap.stream
        out, report = read_protected(pmap)
        assert np.array_equal(out, fmap)
        assert not report.flagged_mask.any()
