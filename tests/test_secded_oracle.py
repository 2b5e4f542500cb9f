"""Oracle-identity tests for SECDED and the bit helpers it used to ride on.

Production :mod:`repro.protect.ecc` encodes and decodes through per-byte
tables; ``tests/oracles/secded.py`` keeps the bit-matrix construction it
replaced.  The two must agree on every codeword, every decoded word,
every :class:`~repro.protect.ecc.SecdedReport` field and every
``ValueError``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.codec import Encoded, GroupCodec
from repro.protect.ecc import codeword_bits, secded_decode, secded_encode
from repro.protect.stream import decode_stream_chunks, encode_stream_chunks
from repro.utils.bits import bits_to_words, words_to_bits
from tests import oracles


def _outcome(fn):
    """Result or the ValueError message, so failures compare too."""
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("raise", str(exc))


def _all_words(width: int, signed: bool) -> np.ndarray:
    if signed:
        return np.arange(-(1 << (width - 1)), 1 << (width - 1), dtype=np.int64)
    return np.arange(1 << width, dtype=np.int64)


def _assert_decode_identical(codes, width, signed):
    got, report = secded_decode(codes, width, signed=signed)
    want, want_report = oracles.secded_decode(codes, width, signed=signed)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert report == want_report
    assert report.detected_mask.shape == want_report.detected_mask.shape


class TestExhaustiveSmallWidths:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_single_and_double_flip(self, width, signed):
        """All words, each with every single and every double flip."""
        words = _all_words(width, signed)
        codes = secded_encode(words, width, signed=signed)
        assert np.array_equal(codes, oracles.secded_encode(words, width, signed=signed))
        _assert_decode_identical(codes, width, signed)
        n = codeword_bits(width)
        masks = [np.int64(1) << b for b in range(n)] + [
            (np.int64(1) << a) | (np.int64(1) << b)
            for a, b in itertools.combinations(range(n), 2)
        ]
        corrupted = codes[None, :] ^ np.array(masks, dtype=np.int64)[:, None]
        # 2-D on purpose: report masks and outputs keep the input shape.
        _assert_decode_identical(corrupted, width, signed)


class TestRandomWords:
    @given(
        width=st.sampled_from([16, 22]),
        signed=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_words_with_up_to_four_flips(self, width, signed, data):
        lo = -(1 << (width - 1)) if signed else 0
        hi = (1 << (width - 1)) - 1 if signed else (1 << width) - 1
        words = np.array(
            data.draw(st.lists(st.integers(lo, hi), min_size=0, max_size=40)),
            dtype=np.int64,
        )
        codes = secded_encode(words, width, signed=signed)
        assert np.array_equal(codes, oracles.secded_encode(words, width, signed=signed))
        n = codeword_bits(width)
        flips = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=0, max_size=4),
                min_size=words.size,
                max_size=words.size,
            )
        )
        corrupted = codes.copy()
        for i, bits in enumerate(flips):
            for b in bits:
                corrupted[i] ^= np.int64(1) << b
        _assert_decode_identical(corrupted, width, signed)


class TestOutOfRange:
    @pytest.mark.parametrize(
        "words, width, signed",
        [
            ([-1], 16, False),
            ([1 << 16], 16, False),
            ([5, -3, 1 << 20], 16, False),
            ([-(1 << 15) - 1], 16, True),
            ([1 << 16], 16, True),
            ([2], 1, False),
            ([-2], 1, True),
            ([0], 0, False),
        ],
    )
    def test_data_words_raise_the_same_error(self, words, width, signed):
        arr = np.array(words, dtype=np.int64)
        got = _outcome(lambda: secded_encode(arr, width, signed=signed))
        want = _outcome(lambda: oracles.secded_encode(arr, width, signed=signed))
        assert got[0] == want[0] == "raise"
        assert got[1] == want[1]

    @pytest.mark.parametrize(
        "codes, width",
        [([-1], 16), ([1 << 22], 16), ([3, 1 << 40], 16), ([1 << 4], 1), ([0], 0)],
    )
    @pytest.mark.parametrize("signed", [False, True])
    def test_codewords_raise_the_same_error(self, codes, width, signed):
        arr = np.array(codes, dtype=np.int64)
        got = _outcome(lambda: secded_decode(arr, width, signed=signed))
        want = _outcome(lambda: oracles.secded_decode(arr, width, signed=signed))
        assert got[0] == want[0] == "raise"
        assert got[1] == want[1]


class TestBitHelpers:
    @given(
        width=st.integers(1, 62),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pack_helpers_match_shift_spec(self, width, data):
        words = np.array(
            data.draw(
                st.lists(st.integers(0, (1 << width) - 1), min_size=0, max_size=30)
            ),
            dtype=np.int64,
        )
        bits = words_to_bits(words, width)
        want = oracles.words_to_bits(words, width)
        assert bits.dtype == want.dtype and np.array_equal(bits, want)
        back = bits_to_words(bits, width)
        assert back.dtype == np.int64 and np.array_equal(back, words)

    @pytest.mark.parametrize(
        "bits", [[0, 1, 2, 0], [0.5, 1, 0, 0], [-1, 0, 1, 1], [0, 0, 0, 255]]
    )
    def test_bits_to_words_rejects_non_binary(self, bits):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            bits_to_words(np.array(bits), 4)

    def test_bits_to_words_accepts_bool_and_int_bits(self):
        for dtype in (bool, np.uint8, np.int64):
            bits = np.array([1, 0, 1, 1], dtype=dtype)
            assert bits_to_words(bits, 4).tolist() == [11]


class TestStreamChunks:
    @given(
        values=st.lists(st.integers(-300, 300), min_size=0, max_size=90),
        flips=st.lists(st.integers(0, 10_000), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunks_match_the_bitwise_spec(self, values, flips):
        """Byte-view chunking equals unpack → pad → SECDED → repack."""
        stream = GroupCodec(16, signed=True, checksum=True).encode(
            np.array(values, dtype=np.int64)
        )
        bits = np.unpackbits(np.frombuffer(stream.data, dtype=np.uint8))[: stream.bits]
        padded = np.concatenate([bits, np.zeros((-bits.size) % 16, dtype=np.uint8)])
        want_codes = oracles.secded_encode(oracles.bits_to_words(padded, 16), 16)
        codes = encode_stream_chunks(stream)
        assert np.array_equal(codes, want_codes)

        n = codeword_bits(16)
        for f in flips:
            if codes.size:
                codes[(f // n) % codes.size] ^= np.int64(1) << (f % n)
        restored, report, suspect = decode_stream_chunks(codes, stream)
        words, want_report = oracles.secded_decode(codes, 16)
        want_bits = oracles.words_to_bits(words, 16)[: stream.bits]
        assert restored.data == np.packbits(want_bits).tobytes()
        assert (restored.bits, restored.values) == (stream.bits, stream.values)
        assert report == want_report
        assert suspect == tuple(
            (16 * int(i), 16 * int(i) + 16)
            for i in np.flatnonzero(want_report.detected_mask)
        )

    def test_bits_past_the_payload_are_never_stored_or_returned(self):
        """Set bits in the byte padding (encode) or the chunk padding
        (a miscorrected last chunk) stay out of the payload, as in the
        bitwise spec that truncates to ``bits`` before packing."""
        stream = GroupCodec(16, signed=True).encode(np.arange(-20, 21, dtype=np.int64))
        assert stream.bits % 8 and stream.bits % 16
        dirty = Encoded(
            data=stream.data[:-1] + bytes([stream.data[-1] | 0x01]),
            bits=stream.bits,
            values=stream.values,
        )
        codes = encode_stream_chunks(dirty)
        assert np.array_equal(codes, encode_stream_chunks(stream))
        words, _ = oracles.secded_decode(codes, 16)
        codes[-1] = oracles.secded_encode(words[-1:] | 1, 16)[0]
        restored, report, _ = decode_stream_chunks(codes, stream)
        assert report.corrected == report.detected == 0
        assert restored.data == stream.data
