"""Whole-array bit-plane kernels behind the bitstream codecs.

The wire formats are defined one field at a time (the value-at-a-time
spec in ``tests/oracles/``); this module implements them as whole-array
numpy bit-plane operations:

- **encode** computes every group width at once (:func:`group_precisions`
  is already vectorized), lays out per-group bit offsets with one
  ``cumsum``, scatters header/value/CRC bit planes into a single ``uint8``
  bit array (one scatter per distinct width, of which there are at most
  16), and emits bytes with a single ``np.packbits``;
- **decode** unpacks the stream once with ``np.unpackbits``, walks the
  variable-width group headers with a cheap O(groups) scan (headers are
  data-dependent, values are not), then gathers and combines all payload
  bit planes per distinct width;
- **CRC-8** is computed for every group at once by exploiting the GF(2)
  linearity of the CRC register: the checksum of a message is the XOR of
  per-bit-position contributions (``x^(d+8) mod G``), so a whole width
  class reduces to one masked XOR-reduction over the already-materialized
  value bit planes.

Every function here is property-tested byte-identical to the spec —
same bytes out of encode, same values/flags/exceptions out of decode,
including lenient decodes of corrupted and truncated streams (the
contract :mod:`repro.faults` and :mod:`repro.protect` rely on).

This module is the low-level layer; callers go through the
:class:`~repro.compression.codec.GroupCodec` /
:class:`~repro.compression.codec.RLEZeroCodec` APIs, which validate
inputs and keep the codec counters.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.compression.schemes import RLE_COUNT_BITS, _RLE_SPAN
from repro.core.precision import HEADER_BITS, group_precisions

__all__ = [
    "CHECKSUM_BITS",
    "CRC8_POLY",
    "crc8_contrib",
    "group_encode",
    "group_decode_flagged",
    "rlez_encode",
    "rlez_decode",
    "unpack_payload",
    "pack_payload",
]

#: Per-group checksum width of the checksummed GroupCodec format (CRC-8,
#: polynomial x^8 + x^2 + x + 1).
CHECKSUM_BITS = 8

#: The CRC-8 generator polynomial (low 8 bits of x^8 + x^2 + x + 1).
CRC8_POLY = 0x07

#: RLEz token width: 4-bit skip count + 16-bit stored value.
RLE_TOKEN_BITS = 16 + RLE_COUNT_BITS

#: Scatter/gather index buffers are chunked to about this many elements so
#: a trace-scale stream never materializes a multi-hundred-MB index matrix.
_INDEX_BUDGET = 1 << 22


def _crc8_shift(crc: int) -> int:
    """Advance the CRC-8 register by one zero input bit."""
    return ((crc << 1) ^ CRC8_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF


@lru_cache(maxsize=None)
def _crc8_powers(length: int) -> np.ndarray:
    """``POW[d]``: CRC-8 of a single 1 bit followed by ``d`` zero bits.

    ``POW[0]`` is the CRC of the message ``"1"``; appending one more zero
    bit is exactly one register shift, so the table builds iteratively.
    """
    out = np.empty(max(length, 1), dtype=np.uint8)
    crc = _crc8_shift(0x80)  # register after absorbing a lone 1 bit
    for d in range(out.size):
        out[d] = crc
        crc = _crc8_shift(crc)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def crc8_contrib(length: int) -> np.ndarray:
    """Per-position CRC-8 contributions for a ``length``-bit message.

    ``contrib[i]`` is the CRC of a message of this length whose only set
    bit is position ``i`` (MSB-first).  Because the CRC register is linear
    over GF(2) with zero initialization, the CRC of any message is the
    XOR of the contributions of its set bits — which turns per-group
    checksumming into one vectorized masked XOR-reduction.
    """
    contrib = _crc8_powers(length)[length - 1 :: -1].copy()
    contrib.setflags(write=False)
    return contrib


def _chunked(indices: np.ndarray, span: int) -> Iterator[np.ndarray]:
    """Split a group-index array so index matrices stay within budget."""
    step = max(1, _INDEX_BUDGET // max(span, 1))
    for i in range(0, indices.size, step):
        yield indices[i : i + step]


def _bit_weights(width: int) -> np.ndarray:
    """MSB-first positional weights for combining ``width`` bit planes."""
    return np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)


def _from_twos_complement_array(raw: np.ndarray, width: int) -> np.ndarray:
    sign_bit = np.int64(1) << (width - 1)
    return np.where(raw & sign_bit, raw - (np.int64(1) << width), raw)


# ---------------------------------------------------------------------------
# GroupCodec (RawD/DeltaD wire format)
# ---------------------------------------------------------------------------


def group_encode(
    flat: np.ndarray, group_size: int, signed: bool, checksum: bool
) -> "tuple[bytes, int]":
    """Pack a validated flat int64 stream; returns ``(data, bits)``.

    Byte-identical to the spec: 4-bit ``width-1`` header per group,
    ``group_size`` values at that width (two's complement when signed),
    optional CRC-8 of each group's header+payload bits, zero padding to a
    whole byte.
    """
    enc = group_precisions(flat, group_size, signed=signed)
    widths = np.asarray(enc.precisions, dtype=np.int64)
    n_groups = widths.size
    tail = CHECKSUM_BITS if checksum else 0
    spans = HEADER_BITS + widths * group_size + tail
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(spans, out=offsets[1:])
    total_bits = int(offsets[-1])
    bits = np.zeros(total_bits, dtype=np.uint8)
    if n_groups:
        header = widths - 1
        hshift = np.arange(HEADER_BITS - 1, -1, -1, dtype=np.int64)
        hbits = ((header[:, None] >> hshift) & 1).astype(np.uint8)
        hpos = offsets[:-1, None] + np.arange(HEADER_BITS, dtype=np.int64)
        bits[hpos.reshape(-1)] = hbits.reshape(-1)

        padded = np.zeros(n_groups * group_size, dtype=np.int64)
        padded[: flat.size] = flat
        vals = padded.reshape(n_groups, group_size)
        cshift = np.arange(CHECKSUM_BITS - 1, -1, -1, dtype=np.int64)
        for w in map(int, np.unique(widths)):
            sel = np.flatnonzero(widths == w)
            span = group_size * w
            vshift = np.arange(w - 1, -1, -1, dtype=np.int64)
            rel = HEADER_BITS + np.arange(span, dtype=np.int64)
            if checksum:
                contrib = crc8_contrib(HEADER_BITS + span)
                # All groups in a width class share the same header bits,
                # hence the same header contribution to their CRC.
                hdr_crc = 0
                for i in range(HEADER_BITS):
                    if (w - 1) >> (HEADER_BITS - 1 - i) & 1:
                        hdr_crc ^= int(contrib[i])
                vcontrib = contrib[HEADER_BITS:]
            for chunk in _chunked(sel, span):
                raw = vals[chunk]
                if signed:
                    raw = raw & ((np.int64(1) << w) - 1)
                planes = ((raw[..., None] >> vshift) & 1).astype(np.uint8)
                planes = planes.reshape(len(chunk), span)
                pos = offsets[chunk][:, None] + rel
                bits[pos.reshape(-1)] = planes.reshape(-1)
                if checksum:
                    crc = np.bitwise_xor.reduce(planes * vcontrib, axis=1)
                    crc ^= np.uint8(hdr_crc)
                    cbits = ((crc[:, None].astype(np.int64) >> cshift) & 1).astype(
                        np.uint8
                    )
                    cpos = (offsets[chunk] + HEADER_BITS + span)[:, None] + np.arange(
                        CHECKSUM_BITS, dtype=np.int64
                    )
                    bits[cpos.reshape(-1)] = cbits.reshape(-1)
    return np.packbits(bits).tobytes(), total_bits


def group_decode_flagged(
    data: bytes,
    stream_bits: int,
    values: int,
    group_size: int,
    signed: bool,
    checksum: bool,
    strict: bool,
    suspect_bits: "Sequence[tuple[int, int]]" = (),
) -> "tuple[np.ndarray, tuple[int, ...]]":
    """Bit-plane ``GroupCodec.decode_flagged`` (post-validation).

    Replicates the spec decoder exactly, including its lenient-mode
    contract on corrupted streams: reads succeed anywhere inside the
    physical byte buffer (padding bits included), exhaustion keeps a
    partial group's values only without checksums, rejected groups
    zero-fill, and a desynchronized stream flags its whole tail while
    keeping the (unverifiable) decoded values of tail groups whose CRC
    happened to pass.
    """
    groups = -(-values // group_size)
    tail = CHECKSUM_BITS if checksum else 0
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    phys = bits.size

    # Header scan: offsets are data-dependent (each group's span depends
    # on its width), so this walk is sequential — but it is O(groups),
    # not O(values x bits), and each step is a handful of int ops on the
    # raw bytes (a 4-bit header straddles at most two of them; the pad
    # byte keeps the straddling read in bounds at the buffer's edge).
    padded = data + b"\x00"
    offsets = np.empty(groups, dtype=np.int64)
    widths = np.empty(groups, dtype=np.int64)
    complete = 0
    eof_bits_read: "Optional[int]" = None
    partial: "Optional[tuple[int, int, int]]" = None  # (offset, width, values read)
    o = 0
    for _g in range(groups):
        if o + HEADER_BITS > phys:
            eof_bits_read = o
            break
        i = o >> 3
        w = (((padded[i] << 8) | padded[i + 1]) >> (12 - (o & 7)) & 0xF) + 1
        payload_end = o + HEADER_BITS + group_size * w
        if payload_end > phys:
            done = (phys - o - HEADER_BITS) // w
            eof_bits_read = o + HEADER_BITS + done * w
            partial = (o, w, done)
            break
        if checksum and payload_end + CHECKSUM_BITS > phys:
            eof_bits_read = payload_end
            break
        offsets[complete] = o
        widths[complete] = w
        o = payload_end + tail
        complete += 1
    bits_read = o if eof_bits_read is None else eof_bits_read

    out = np.zeros((groups, group_size), dtype=np.int64)
    rejected = np.zeros(groups, dtype=bool)
    offs_c = offsets[:complete]
    wids_c = widths[:complete]
    for w in (map(int, np.unique(wids_c)) if complete else ()):
        sel = np.flatnonzero(wids_c == w)
        span = group_size * w
        weights = _bit_weights(w)
        rel = HEADER_BITS + np.arange(span, dtype=np.int64)
        if checksum:
            contrib = crc8_contrib(HEADER_BITS + span)
            hdr_crc = 0
            for i in range(HEADER_BITS):
                if (w - 1) >> (HEADER_BITS - 1 - i) & 1:
                    hdr_crc ^= int(contrib[i])
            vcontrib = contrib[HEADER_BITS:]
            cweights = _bit_weights(CHECKSUM_BITS)
        for chunk in _chunked(sel, span):
            pos = offs_c[chunk][:, None] + rel
            planes = bits[pos.reshape(-1)].reshape(len(chunk), span)
            raw = planes.reshape(len(chunk), group_size, w).astype(np.int64) @ weights
            if signed:
                raw = _from_twos_complement_array(raw, w)
            out[chunk] = raw
            if checksum:
                calc = np.bitwise_xor.reduce(planes * vcontrib, axis=1)
                calc ^= np.uint8(hdr_crc)
                cpos = (offs_c[chunk] + HEADER_BITS + span)[:, None] + np.arange(
                    CHECKSUM_BITS, dtype=np.int64
                )
                stored = bits[cpos.reshape(-1)].reshape(len(chunk), CHECKSUM_BITS)
                stored = stored.astype(np.int64) @ cweights
                rejected[chunk] |= stored != calc

    if checksum and complete and suspect_bits:
        # A group overlapping a known-damaged bit range is rejected even
        # when its CRC-8 happens to pass (the 2^-8 escape path).
        span_end = offs_c + HEADER_BITS + wids_c * group_size + CHECKSUM_BITS
        known_bad = np.zeros(complete, dtype=bool)
        for lo, hi in suspect_bits:
            known_bad |= (offs_c < hi) & (lo < span_end)
        rejected[:complete] |= known_bad

    if strict:
        if checksum and rejected.any():
            g = int(np.flatnonzero(rejected)[0])
            raise ValueError(f"corrupt stream: checksum mismatch in group {g}")
        if eof_bits_read is not None:
            raise ValueError(
                f"corrupt stream: exhausted after {bits_read} of "
                f"{stream_bits} bits"
            )
        if bits_read != stream_bits:
            raise ValueError(f"decoded {bits_read} bits, expected {stream_bits}")

    flagged: "list[int]" = []
    if checksum:
        bad = np.flatnonzero(rejected)
        out[bad] = 0
        flagged = [int(g) for g in bad]
        if eof_bits_read is not None:
            # Every group past the exhaustion point decoded as zeros and
            # is unverifiable — flag the whole remainder.
            flagged.extend(range(complete, groups))
        desynced = eof_bits_read is not None or (
            bool(flagged) and bits_read != stream_bits
        )
        if desynced and flagged:
            flagged = list(range(flagged[0], groups))
    elif partial is not None:
        # Without checksums the hardware unit keeps whatever values it
        # managed to shift in before the stream ran dry.
        start, w, done = partial
        if done:
            weights = _bit_weights(w)
            pos = (
                start
                + HEADER_BITS
                + np.arange(done, dtype=np.int64)[:, None] * w
                + np.arange(w, dtype=np.int64)
            )
            raw = bits[pos.reshape(-1)].reshape(done, w).astype(np.int64) @ weights
            if signed:
                raw = _from_twos_complement_array(raw, w)
            out[complete, :done] = raw
    return out.reshape(-1)[:values].copy(), tuple(flagged)


# ---------------------------------------------------------------------------
# RLEZeroCodec (zero-skipping token format)
# ---------------------------------------------------------------------------


def rlez_encode(flat: np.ndarray) -> "tuple[bytes, int]":
    """Pack a validated flat int64 stream into (skip, value) tokens.

    Byte-identical to the spec: a nonzero value preceded by ``z`` zeros
    emits ``z // 16`` escape tokens (skip 15, stored zero) then
    ``(z % 16, value)``; trailing zeros emit escape tokens whose last
    carries the remainder.
    """
    n = flat.size
    nz = np.flatnonzero(flat)
    span = _RLE_SPAN + 1
    if nz.size:
        prev = np.empty_like(nz)
        prev[0] = -1
        prev[1:] = nz[:-1]
        gaps = nz - prev - 1
        trailing = n - int(nz[-1]) - 1
    else:
        gaps = np.zeros(0, dtype=np.int64)
        trailing = n
    n_escapes = gaps // span
    n_trail = -(-trailing // span)
    total = int(n_escapes.sum()) + nz.size + n_trail
    if total == 0:
        return b"", 0
    skips = np.full(total, _RLE_SPAN, dtype=np.int64)
    stored = np.zeros(total, dtype=np.int64)
    if nz.size:
        real_idx = np.cumsum(n_escapes + 1) - 1
        skips[real_idx] = gaps % span
        stored[real_idx] = flat[nz]
    if trailing % span:
        skips[-1] = trailing % span - 1
    tokens = (skips << 16) | (stored & 0xFFFF)
    shifts = np.arange(RLE_TOKEN_BITS - 1, -1, -1, dtype=np.int64)
    planes = ((tokens[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(planes.reshape(-1)).tobytes(), total * RLE_TOKEN_BITS


def rlez_decode(
    data: bytes, stream_bits: int, values: int, strict: bool
) -> np.ndarray:
    """Bit-plane ``RLEZeroCodec.decode`` (post-validation)."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    phys = bits.size
    attempted = -(-stream_bits // RLE_TOKEN_BITS)
    n_tokens = min(attempted, phys // RLE_TOKEN_BITS)
    if n_tokens < attempted and strict:
        start = n_tokens * RLE_TOKEN_BITS
        bits_read = start + RLE_COUNT_BITS if start + RLE_COUNT_BITS <= phys else start
        raise ValueError(
            f"corrupt stream: exhausted after {bits_read} of {stream_bits} bits"
        )
    out = np.zeros(values, dtype=np.int64)
    if n_tokens:
        planes = bits[: n_tokens * RLE_TOKEN_BITS].reshape(n_tokens, RLE_TOKEN_BITS)
        planes = planes.astype(np.int64)
        skips = planes[:, :RLE_COUNT_BITS] @ _bit_weights(RLE_COUNT_BITS)
        vals = _from_twos_complement_array(planes[:, RLE_COUNT_BITS:] @ _bit_weights(16), 16)
        ends = np.cumsum(skips + 1)
        decoded = np.zeros(int(ends[-1]), dtype=np.int64)
        decoded[ends - 1] = vals
        keep = min(values, decoded.size)
        out[:keep] = decoded[:keep]
    return out


# ---------------------------------------------------------------------------
# Shared payload-bit helpers (protect / faults)
# ---------------------------------------------------------------------------


def unpack_payload(data: bytes, stream_bits: int) -> np.ndarray:
    """The payload bits of a packed stream as a 0/1 ``uint8`` array.

    Only the ``stream_bits`` stored bits are exposed — the zero padding
    the encoder adds to reach a whole byte never leaves it.
    """
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:stream_bits]


def pack_payload(bits: np.ndarray) -> bytes:
    """Pack a 0/1 bit array back into bytes (zero-padded, MSB first)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
