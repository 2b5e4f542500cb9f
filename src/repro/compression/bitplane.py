"""Whole-array bit-plane kernels behind the bitstream codecs.

The wire formats are defined one field at a time (the value-at-a-time
spec in ``tests/oracles/``); this module implements them as whole-array
numpy bit-plane operations on the unpacked stream (one ``uint8`` per
bit).

**Units.**  A GroupCodec group spans ``HEADER_BITS + group_size*w +
tail`` bits, with ``tail`` 0 or ``CHECKSUM_BITS`` (8).  Every group
offset is a sum of such spans, so every field boundary in the stream —
header, payload, CRC — falls on a multiple of ``u = gcd(HEADER_BITS,
group_size)``: 4 for the production group of 16, 1 or 2 for odd sizes.
The codec therefore moves bits ``u`` at a time, as the ``u``-byte
elements of a ``uint{8u}`` view of the bit array:

- **encode** computes every group width at once (:func:`group_precisions`
  is already vectorized), lays out the group offsets with one ``cumsum``,
  builds each width class's bit planes with one ``np.unpackbits`` of the
  big-endian 16-bit words, scatters header, payload and CRC as units
  (one scatter per distinct width, of which there are at most 16), and
  emits bytes with a single ``np.packbits``;
- **decode** unpacks the stream once, builds the 4-bit header value at
  every unit offset with one strided pass, and walks that table: each
  step is ``k += base + q*table[k]`` in units, for as long as a
  maximal-width group still fits in the buffer.  The last few groups go
  through a per-group loop that checks every field against the buffer
  end, so exhaustion, partial groups and desynchronized tails decode
  exactly as the spec does.  Payload and CRC units are then gathered
  per distinct width (``u`` times fewer indices than a per-bit gather).
- **combine**: bit planes become integers through a float32 matmul
  (:func:`_combine_planes`).  It is exact: a field is at most 24 bits
  wide (16 in every codec format here), so each partial sum is an
  integer below 2^24, which float32 holds without rounding.  Signed
  fields sign-extend as ``(raw ^ s) - s`` with ``s`` the sign bit.
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
:class:`~repro.compression.codec.GroupCodec` API, which validates inputs
and keeps the codec counters.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.precision import HEADER_BITS, group_precisions

__all__ = [
    "CHECKSUM_BITS",
    "CRC8_POLY",
    "crc8_contrib",
    "group_encode",
    "group_decode_flagged",
    "unpack_payload",
    "pack_payload",
]

#: Per-group checksum width of the checksummed GroupCodec format (CRC-8,
#: polynomial x^8 + x^2 + x + 1).
CHECKSUM_BITS = 8

#: The CRC-8 generator polynomial (low 8 bits of x^8 + x^2 + x + 1).
CRC8_POLY = 0x07

#: Widest group a 4-bit ``width - 1`` header can announce.
_MAX_WIDTH = 1 << HEADER_BITS

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


@lru_cache(maxsize=None)
def _bit_weights(width: int) -> np.ndarray:
    """MSB-first float32 positional weights for ``width`` bit planes."""
    weights = (2.0 ** np.arange(width - 1, -1, -1)).astype(np.float32)
    weights.setflags(write=False)
    return weights


def _combine_planes(planes: np.ndarray) -> np.ndarray:
    """The unsigned MSB-first value of 0/1 bit planes on the last axis.

    One float32 matmul, exact for fields up to 24 bits wide: every
    partial sum is an integer below 2^24, which float32 represents
    without rounding.  Returns ``int64``.
    """
    weights = _bit_weights(planes.shape[-1])
    return (planes.astype(np.float32) @ weights).astype(np.int64)


def _sign_extend(raw: np.ndarray, width: int) -> np.ndarray:
    """Read unsigned ``width``-bit fields as two's complement."""
    sign = 1 << (width - 1)
    return (raw ^ sign) - sign


def _to_planes(values: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of each value as MSB-first 0/1 planes.

    Adds a last axis of length ``width`` (``width <= 16``): the masked
    values are left-aligned in big-endian 16-bit words, and
    ``np.unpackbits`` keeps each word's first ``width`` bits.
    """
    masked = np.asarray(values, dtype=np.int64) & ((1 << width) - 1)
    words = np.asarray(masked << (16 - width), dtype=">u2")  # scalars too
    return np.unpackbits(words[..., None].view(np.uint8), axis=-1, count=width)


def _unit(group_size: int) -> int:
    """Bits per unit: every GroupCodec field starts on a multiple of it."""
    return gcd(HEADER_BITS, group_size)


def _width_crc(width: int, group_size: int) -> "tuple[np.uint8, np.ndarray]":
    """CRC-8 terms of a width-``width`` group.

    Returns the header's contribution, which every group of the width
    class shares, and the per-position contributions of the payload bits.
    """
    contrib = crc8_contrib(HEADER_BITS + group_size * width)
    header = _to_planes(width - 1, HEADER_BITS) * contrib[:HEADER_BITS]
    return np.bitwise_xor.reduce(header), contrib[HEADER_BITS:]


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
    u = _unit(group_size)
    spans = HEADER_BITS + widths * group_size + tail
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(spans, out=offsets[1:])
    total_bits = int(offsets[-1])
    bits = np.zeros(-(-total_bits // 8) * 8, dtype=np.uint8)
    units = bits.view(f"u{u}")
    starts = offsets[:-1] // u  # each group's first unit
    hu = HEADER_BITS // u
    if n_groups:
        hpos = starts[:, None] + np.arange(hu)
        units[hpos] = _to_planes(widths - 1, HEADER_BITS).view(units.dtype)

        padded = np.zeros(n_groups * group_size, dtype=np.int64)
        padded[: flat.size] = flat
        vals = padded.reshape(n_groups, group_size)
        for w in np.unique(widths).tolist():
            sel = np.flatnonzero(widths == w)
            span = group_size * w
            rel = hu + np.arange(span // u)
            if checksum:
                hdr_crc, vcontrib = _width_crc(w, group_size)
                crel = hu + span // u + np.arange(CHECKSUM_BITS // u)
            for chunk in _chunked(sel, span):
                planes = _to_planes(vals[chunk], w).reshape(len(chunk), span)
                units[starts[chunk][:, None] + rel] = planes.view(units.dtype)
                if checksum:
                    crc = np.bitwise_xor.reduce(planes * vcontrib, axis=1) ^ hdr_crc
                    cplanes = _to_planes(crc, CHECKSUM_BITS)
                    units[starts[chunk][:, None] + crel] = cplanes.view(units.dtype)
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
    u = _unit(group_size)
    hu = HEADER_BITS // u
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    phys = bits.size
    units = bits.view(f"u{u}")

    # Header table: the 4-bit header read at every unit offset where a
    # whole header fits in the buffer.  Group offsets are data-dependent,
    # so the walk stays sequential; each step is one table read and one
    # add, in units.
    n_hdr = max(0, (phys - HEADER_BITS) // u + 1)
    hdr = np.zeros(n_hdr, dtype=np.uint8)
    for i in range(HEADER_BITS):
        hdr |= bits[i::u][:n_hdr] << (HEADER_BITS - 1 - i)
    table = hdr.tobytes()
    base = (HEADER_BITS + group_size + tail) // u
    q = group_size // u
    # A group starting at or before unit ``last_safe`` is complete at any
    # width, so the fast walk needs no bounds checks.
    last_safe = (phys - HEADER_BITS - group_size * _MAX_WIDTH - tail) // u
    starts: "list[int]" = []  # first unit of every complete group
    append = starts.append
    k = 0
    for _g in range(groups):
        if k > last_safe:
            break
        append(k)
        k += base + q * table[k]

    # The last groups before the buffer end: check every field.
    eof_bits_read: "Optional[int]" = None
    partial: "Optional[tuple[int, int, int]]" = None  # (offset, width, values read)
    o = k * u
    for _g in range(len(starts), groups):
        if o + HEADER_BITS > phys:
            eof_bits_read = o
            break
        w = table[o // u] + 1
        payload_end = o + HEADER_BITS + group_size * w
        if payload_end > phys:
            done = (phys - o - HEADER_BITS) // w
            eof_bits_read = o + HEADER_BITS + done * w
            partial = (o, w, done)
            break
        if checksum and payload_end + CHECKSUM_BITS > phys:
            eof_bits_read = payload_end
            break
        append(o // u)
        o = payload_end + tail
    bits_read = o if eof_bits_read is None else eof_bits_read

    complete = len(starts)
    starts_c = np.array(starts, dtype=np.int64)
    wids_c = hdr[starts_c].astype(np.int64) + 1
    out = np.zeros((groups, group_size), dtype=np.int64)
    rejected = np.zeros(groups, dtype=bool)
    for w in np.unique(wids_c).tolist():
        sel = np.flatnonzero(wids_c == w)
        span = group_size * w
        rel = hu + np.arange(span // u)
        if checksum:
            hdr_crc, vcontrib = _width_crc(w, group_size)
            crel = hu + span // u + np.arange(CHECKSUM_BITS // u)
        for chunk in _chunked(sel, span):
            first = starts_c[chunk][:, None]
            planes = units[first + rel].view(np.uint8)
            raw = _combine_planes(planes.reshape(len(chunk), group_size, w))
            out[chunk] = _sign_extend(raw, w) if signed else raw
            if checksum:
                calc = np.bitwise_xor.reduce(planes * vcontrib, axis=1) ^ hdr_crc
                stored = _combine_planes(units[first + crel].view(np.uint8))
                rejected[chunk] |= stored != calc

    if checksum and complete and suspect_bits:
        # A group overlapping a known-damaged bit range is rejected even
        # when its CRC-8 happens to pass (the 2^-8 escape path).
        offs_c = starts_c * u
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
            first = start + HEADER_BITS
            raw = _combine_planes(bits[first : first + done * w].reshape(done, w))
            out[complete, :done] = _sign_extend(raw, w) if signed else raw
    return out.reshape(-1)[:values].copy(), tuple(flagged)


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
