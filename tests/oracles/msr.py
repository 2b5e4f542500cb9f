"""Value-at-a-time MSR weight codec: the per-column wire-format spec.

The functions take the codec's parameters (``bits``, ``max_msr``,
``column_size``, ``checksum``) and derive the header field widths the
same way :class:`repro.weights.msr.MSRCodec` documents them.  The
production codec must match them byte for byte, including lenient
decodes of corrupted and truncated streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression.bitplane import CHECKSUM_BITS
from repro.compression.codec import Encoded, _check_encoded
from repro.utils.bits import signed_range
from repro.weights.msr import MSRCodec
from tests.oracles.bitio import (
    BitReader,
    BitWriter,
    crc8_bits,
    from_twos_complement,
    to_twos_complement,
)


def _field_bits(bits: int, max_msr: int, column_size: int) -> "tuple[int, int, int]":
    """(run-header, compensation-count, compensation-index) widths."""
    run_bits = max(1, (max_msr - 1).bit_length())
    count_bits = column_size.bit_length()
    index_bits = max(1, (column_size - 1).bit_length())
    return run_bits, count_bits, index_bits


def msr_choose_run(
    col: np.ndarray, bits: int, max_msr: int, column_size: int
) -> "tuple[int, list[int]]":
    """Spec run choice: minimal size, ties to the larger run."""
    _, _, index_bits = _field_bits(bits, max_msr, column_size)
    entry_bits = index_bits + bits
    best_run, best_size, best_comp = 1, None, np.zeros(0, dtype=np.int64)
    for run in range(1, max_msr + 1):
        compact = bits - run + 1
        lo, hi = signed_range(compact)
        oob = np.flatnonzero((col < lo) | (col > hi))
        size = oob.size * entry_bits + column_size * compact
        if best_size is None or size <= best_size:
            best_run, best_size, best_comp = run, size, oob
    return best_run, [int(i) for i in best_comp]


def msr_encode(
    flat: np.ndarray, bits: int, max_msr: int, column_size: int, checksum: bool
) -> Encoded:
    """Spec of ``MSRCodec(bits, max_msr, column_size, checksum).encode``."""
    run_bits, count_bits, index_bits = _field_bits(bits, max_msr, column_size)
    writer = BitWriter()
    columns = -(-flat.size // column_size) if flat.size else 0
    padded = np.zeros(columns * column_size, dtype=np.int64)
    padded[: flat.size] = flat
    for c in range(columns):
        col = padded[c * column_size : (c + 1) * column_size]
        run, comp = msr_choose_run(col, bits, max_msr, column_size)
        compact = bits - run + 1
        lo, hi = signed_range(compact)
        start = len(writer)
        writer.write(run - 1, run_bits)
        writer.write(len(comp), count_bits)
        for idx in comp:
            writer.write(idx, index_bits)
            writer.write(to_twos_complement(int(col[idx]), bits), bits)
        for v in col:
            v = int(v)
            stored = v if lo <= v <= hi else 0
            writer.write(to_twos_complement(stored, compact), compact)
        if checksum:
            writer.write(
                crc8_bits(writer.bit_slice(start, len(writer))), CHECKSUM_BITS
            )
    written = len(writer)
    expected = MSRCodec(bits, max_msr, column_size, checksum).encoded_bits(flat)
    if written != expected:
        raise AssertionError(
            f"codec wrote {written} bits but accounting says {expected}"
        )
    return Encoded(data=writer.getvalue(), bits=written, values=int(flat.size))


def msr_decode_flagged(
    encoded: Encoded,
    bits: int,
    max_msr: int,
    column_size: int,
    checksum: bool,
    strict: bool = True,
    suspect_bits: "tuple[tuple[int, int], ...]" = (),
) -> "tuple[np.ndarray, tuple[int, ...]]":
    """Spec of ``MSRCodec(bits, max_msr, column_size, checksum).decode_flagged``."""
    _check_encoded(encoded, strict)
    run_bits, count_bits, index_bits = _field_bits(bits, max_msr, column_size)
    reader = BitReader(encoded.data)
    out: list[int] = []
    flagged: list[int] = []
    columns = -(-encoded.values // column_size)
    exhausted_at: "Optional[int]" = None
    col_vals: list[int] = []
    try:
        for g in range(columns):
            col_vals = []
            comp: "list[tuple[int, int]]" = []
            start = reader.bits_read
            run = reader.read(run_bits) + 1
            m = reader.read(count_bits)
            for _ in range(m):
                idx = reader.read(index_bits)
                raw = reader.read(bits)
                comp.append((idx, from_twos_complement(raw, bits)))
            compact = bits - run + 1
            for _ in range(column_size):
                raw = reader.read(compact)
                col_vals.append(from_twos_complement(raw, compact))
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
                            f"corrupt stream: checksum mismatch in column {g}"
                        )
                    flagged.append(g)
                    col_vals = [0] * column_size
                    comp = []
            # Compensation applies only on column completion; entries
            # whose index exceeds the column (corruption) are ignored.
            for idx, val in comp:
                if idx < column_size:
                    col_vals[idx] = val
            out.extend(col_vals)
    except EOFError:
        if strict:
            raise ValueError(
                f"corrupt stream: exhausted after {reader.bits_read} of "
                f"{encoded.bits} bits"
            ) from None
        if not checksum:
            # Without checksums the hardware unit keeps whatever compact
            # values it managed to shift in before the stream ran dry
            # (uncompensated); with them the partial column is
            # unverifiable, so it zero-fills.
            out.extend(col_vals)
        exhausted_at = len(out) // column_size
    if strict and reader.bits_read != encoded.bits:
        raise ValueError(
            f"decoded {reader.bits_read} bits, expected {encoded.bits}"
        )
    if checksum:
        # Same desync rule as the activation streams: exhaustion or an
        # end misalignment after a checksum failure means later columns
        # decoded from the wrong offsets — flag the whole tail.
        if exhausted_at is not None:
            flagged.extend(range(exhausted_at, columns))
        desynced = exhausted_at is not None or (
            bool(flagged) and reader.bits_read != encoded.bits
        )
        if desynced and flagged:
            flagged = list(range(flagged[0], columns))
    if len(out) < encoded.values:
        out.extend([0] * (encoded.values - len(out)))
    return np.array(out[: encoded.values], dtype=np.int64), tuple(flagged)
