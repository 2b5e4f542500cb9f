"""Value-at-a-time GroupCodec and RLEz token format: the wire-format spec.

Each function walks the stream one field at a time through
:class:`~tests.oracles.bitio.BitWriter` / :class:`~tests.oracles.bitio.BitReader`
and takes the codec's parameters explicitly.  The production
``GroupCodec`` in :mod:`repro.compression.codec` must match the group
functions byte for byte: same encoded bytes, same decoded values and
flags, and the same strict-mode errors, corrupted and truncated streams
included.  The RLEz functions are the only implementation of that
format; they prove the price ``schemes.RLEZero.encoded_bits`` charges.

Encoders take an already-validated flat ``int64`` stream.  Decoders
apply the same container check as the production ``decode``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.bitplane import CHECKSUM_BITS
from repro.compression.codec import Encoded, _check_encoded
from repro.compression.schemes import RLE_COUNT_BITS, _RLE_SPAN
from repro.core.precision import HEADER_BITS, group_precisions
from tests.oracles.bitio import (
    BitReader,
    BitWriter,
    crc8_bits,
    from_twos_complement,
    to_twos_complement,
)


def group_encode(
    flat: np.ndarray, group_size: int, signed: bool, checksum: bool
) -> Encoded:
    """Spec of ``GroupCodec(group_size, signed, checksum).encode``."""
    enc = group_precisions(flat, group_size, signed=signed)
    writer = BitWriter()
    padded = np.zeros(len(enc.precisions) * group_size, dtype=np.int64)
    padded[: flat.size] = flat
    for g, width in enumerate(enc.precisions):
        width = int(width)
        start = len(writer)
        # Headers store width-1 so 4 bits cover widths 1..16.
        writer.write(width - 1, HEADER_BITS)
        chunk = padded[g * group_size : (g + 1) * group_size]
        for v in chunk:
            v = int(v)
            raw = to_twos_complement(v, width) if signed else v
            writer.write(raw, width)
        if checksum:
            writer.write(crc8_bits(writer.bit_slice(start, len(writer))), CHECKSUM_BITS)
    bits = len(writer)
    expected = enc.total_bits + (
        len(enc.precisions) * CHECKSUM_BITS if checksum else 0
    )
    if bits != expected:
        raise AssertionError(
            f"codec wrote {bits} bits but accounting says {expected}"
        )
    return Encoded(data=writer.getvalue(), bits=bits, values=int(flat.size))


def group_decode_flagged(
    encoded: Encoded,
    group_size: int,
    signed: bool,
    checksum: bool,
    strict: bool = True,
    suspect_bits: "tuple[tuple[int, int], ...]" = (),
) -> "tuple[np.ndarray, tuple[int, ...]]":
    """Spec of ``GroupCodec(group_size, signed, checksum).decode_flagged``."""
    _check_encoded(encoded, strict)
    reader = BitReader(encoded.data)
    out: list[int] = []
    flagged: list[int] = []
    groups = -(-encoded.values // group_size)
    exhausted_at: "int | None" = None
    group_vals: list[int] = []
    try:
        for g in range(groups):
            group_vals = []
            start = reader.bits_read
            width = reader.read(HEADER_BITS) + 1
            for _ in range(group_size):
                raw = reader.read(width)
                group_vals.append(
                    from_twos_complement(raw, width) if signed else raw
                )
            if checksum:
                end = reader.bits_read
                stored = reader.read(CHECKSUM_BITS)
                span_end = reader.bits_read
                known_bad = any(
                    start < hi and lo < span_end for lo, hi in suspect_bits
                )
                if known_bad or stored != crc8_bits(reader.bit_slice(start, end)):
                    if strict:
                        raise ValueError(
                            f"corrupt stream: checksum mismatch in group {g}"
                        )
                    flagged.append(g)
                    group_vals = [0] * group_size
            out.extend(group_vals)
    except EOFError:
        if strict:
            raise ValueError(
                f"corrupt stream: exhausted after {reader.bits_read} of "
                f"{encoded.bits} bits"
            ) from None
        if not checksum:
            # Without checksums the hardware unit keeps whatever values
            # it managed to shift in before the stream ran dry; with
            # them the partial group is unverifiable, so it zero-fills.
            out.extend(group_vals)
        exhausted_at = len(out) // group_size
    if strict and reader.bits_read != encoded.bits:
        raise ValueError(
            f"decoded {reader.bits_read} bits, expected {encoded.bits}"
        )
    if checksum:
        # Exhaustion or an end misalignment after a checksum failure is
        # the signature of a header desync, under which every later
        # group decoded from the wrong offsets — and a garbage group
        # still passes its CRC-8 with probability 2^-8.  Flag the whole
        # tail from the first failure rather than trusting those coin
        # flips.  (A payload-only error keeps the stream aligned and
        # keeps the precise per-group flags.)
        if exhausted_at is not None:
            flagged.extend(range(exhausted_at, groups))
        desynced = exhausted_at is not None or (
            bool(flagged) and reader.bits_read != encoded.bits
        )
        if desynced and flagged:
            flagged = list(range(flagged[0], groups))
    if len(out) < encoded.values:
        out.extend([0] * (encoded.values - len(out)))
    return np.array(out[: encoded.values], dtype=np.int64), tuple(flagged)


def rlez_encode(flat: np.ndarray) -> Encoded:
    """Encode RLEz (4-bit skip, 16-bit value) tokens, one at a time.

    A token contributes ``skip`` zeros followed by its value; zero runs
    longer than 15 are carried by escape tokens whose stored value is
    itself zero.
    """
    writer = BitWriter()
    pending_zeros = 0

    def emit(value: int, skip: int) -> None:
        writer.write(skip, RLE_COUNT_BITS)
        writer.write(to_twos_complement(value, 16), 16)

    for v in flat:
        v = int(v)
        if v == 0:
            pending_zeros += 1
            if pending_zeros == _RLE_SPAN + 1:
                emit(0, _RLE_SPAN)  # escape: 15 skipped + stored zero
                pending_zeros = 0
            continue
        emit(v, pending_zeros)
        pending_zeros = 0
    while pending_zeros > 0:
        chunk = min(pending_zeros, _RLE_SPAN + 1)
        emit(0, chunk - 1)
        pending_zeros -= chunk
    return Encoded(data=writer.getvalue(), bits=len(writer), values=int(flat.size))


def rlez_decode(encoded: Encoded, strict: bool = True) -> np.ndarray:
    """Decode :func:`rlez_encode` tokens back to ``encoded.values`` values."""
    _check_encoded(encoded, strict)
    reader = BitReader(encoded.data)
    out: list[int] = []
    try:
        while reader.bits_read < encoded.bits:
            skip = reader.read(RLE_COUNT_BITS)
            value = from_twos_complement(reader.read(16), 16)
            out.extend([0] * skip)
            out.append(value)
    except EOFError:
        if strict:
            raise ValueError(
                f"corrupt stream: exhausted after {reader.bits_read} of "
                f"{encoded.bits} bits"
            ) from None
    # Trailing stored zeros may have been emitted as escape values;
    # the value count disambiguates.
    if len(out) < encoded.values:
        out.extend([0] * (encoded.values - len(out)))
    return np.array(out[: encoded.values], dtype=np.int64)
