"""SECDED (single-error-correct, double-error-detect) word protection.

Extended Hamming code over stored activation words, the Hamming(72,64)
construction scaled to the word widths this model stores (a 16-bit
activation word becomes a 22-bit codeword: 5 Hamming parity bits plus one
overall parity bit).  This is the standard DRAM/SRAM ECC organization and
the "ECC" leg of the protection ladder in :mod:`repro.protect`:

- syndrome 0, overall parity even  → clean word;
- overall parity odd               → single-bit error, corrected (the
  flipped bit may be the overall parity bit itself, in which case the
  data is already intact);
- syndrome ≠ 0, overall parity even → double-bit error, *detected* but
  uncorrectable — the word is zero-filled and flagged so downstream
  recovery (checksums, keyframes) can bound the damage.

Three or more flips in one codeword can alias to a valid single-error
syndrome and silently miscorrect — inherent to SECDED and measured, not
hidden, by the protected fault campaigns.

Everything works on the int64 word array, eight bits at a time.  SECDED
is linear over GF(2): the codeword of ``a ^ b`` is the XOR of their
codewords, and syndrome, overall parity and data bits of a codeword are
XORs of what each of its bits contributes.  So each width gets one
256-entry table per data byte (that byte's codeword contribution) and one
per codeword byte (that byte's syndrome, overall parity and data bits,
packed into one int64).  Encode and decode are then one gather per byte
of a little-endian byte view plus XORs.  A last small table, indexed by
syndrome and overall parity, gives each word's correction (the data bit
the syndrome points at) and whether it counts as corrected or detected.

``tests/oracles/secded.py`` keeps the textbook construction (data bits
scattered into a per-word bit row, parities read off a
positions-by-syndrome bit matrix) as the executable spec; the property
tests hold this module byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "SecdedReport",
    "codeword_bits",
    "parity_bits",
    "secded_encode",
    "secded_decode",
]

#: For each byte value, its bits LSB first — expands per-bit contributions
#: into per-byte tables.
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)


@lru_cache(maxsize=None)
def _layout(width: int) -> "tuple[int, int]":
    """``(r, n_hamming)``: Hamming parity bits and Hamming codeword length.

    Codeword positions are 1-indexed; powers of two hold parity, the rest
    hold the data bits MSB first.  The stored codeword puts position ``p``
    at integer bit ``n_hamming + 1 - p`` and the overall parity at bit 0.
    """
    check_positive("width", width)
    r = 1
    while (1 << r) < width + r + 1:
        r += 1
    return r, width + r


def _byte_tables(contrib: np.ndarray) -> np.ndarray:
    """Per-byte XOR tables of per-bit contributions (LSB first).

    ``tables[i, v]`` is the XOR of ``contrib[8 * i + b]`` over the set
    bits ``b`` of ``v``: what byte ``i`` of a word holding ``v``
    contributes to a GF(2)-linear function of the word.
    """
    padded = np.zeros(-(-contrib.size // 8) * 8, dtype=np.int64)
    padded[: contrib.size] = contrib
    per_bit = np.where(_BYTE_BITS, padded.reshape(-1, 1, 8), 0)
    return np.bitwise_xor.reduce(per_bit, axis=2)


class _Tables(NamedTuple):
    """Lookup tables of the SECDED code for one data width.

    ``encode[i]`` maps data byte ``i`` to its codeword bits; ``decode[i]``
    maps codeword byte ``i`` to ``status << width | data bits``, where the
    *status* is ``syndrome << 1 | overall parity``.  The per-status tables
    hold what that status means: the data bit a single-error correction
    flips, and whether the word counts as corrected or detected.
    """

    encode: np.ndarray
    decode: np.ndarray
    fix: np.ndarray
    correctable: np.ndarray
    detected: np.ndarray


@lru_cache(maxsize=None)
def _tables(width: int) -> _Tables:
    """The :class:`_Tables` of ``width``-bit words, built once per width."""
    r, n_hamming = _layout(width)
    n = n_hamming + 1
    positions = np.arange(1, n_hamming + 1, dtype=np.int64)
    # Data bit b (LSB first) sits at the (width - 1 - b)-th data position.
    data_pos = positions[(positions & (positions - 1)) != 0][::-1]
    data_at = np.zeros(1 << r, dtype=np.int64)
    data_at[data_pos] = np.int64(1) << np.arange(width, dtype=np.int64)
    # A data bit at position p sets parity bit 2^j for every bit j of p,
    # which zeroes the syndrome; the overall bit evens the total weight.
    hits = (data_pos[:, None] >> np.arange(r)) & 1
    parity_slots = np.int64(1) << (n - (np.int64(1) << np.arange(r)))
    encode = (
        (np.int64(1) << (n - data_pos))
        | np.bitwise_or.reduce(hits * parity_slots, axis=1)
        | ((1 + hits.sum(axis=1)) & 1)
    )
    # Codeword bit q >= 1 is position n - q; bit 0 is the overall parity.
    ham = positions[::-1]
    decode = np.concatenate(
        [[np.int64(1) << width], (((ham << 1) | 1) << width) | data_at[ham]]
    )
    status = np.arange(2 << r)
    syndrome, odd_parity = status >> 1, (status & 1).astype(bool)
    # Odd parity with a valid syndrome: correct that bit (syndrome 0 means
    # the overall parity bit itself flipped — data already intact).
    correctable = odd_parity & (syndrome <= n_hamming)
    # Even parity with a nonzero syndrome is the classic double error; an
    # odd-weight multi-error pointing past the codeword is also detected.
    detected = (~odd_parity & (syndrome != 0)) | (odd_parity & (syndrome > n_hamming))
    fix = np.where(correctable, data_at[syndrome], 0)
    return _Tables(
        _byte_tables(encode), _byte_tables(decode), fix, correctable, detected
    )


def _gather(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """XOR of ``tables[i][byte i of each word]`` over the tables' bytes."""
    view = np.ascontiguousarray(words, dtype="<i8").view(np.uint8).reshape(-1, 8)
    out = tables[0][view[:, 0]]
    for i in range(1, len(tables)):
        out ^= tables[i][view[:, i]]
    return out


def parity_bits(width: int) -> int:
    """Check bits per ``width``-bit word: Hamming parities + overall parity."""
    return _layout(width)[0] + 1


def codeword_bits(width: int) -> int:
    """Stored bits per ``width``-bit word under SECDED (16 → 22)."""
    return width + parity_bits(width)


def _mask_signed(arr: np.ndarray, width: int, signed: bool) -> np.ndarray:
    if not signed:
        if arr.size and arr.min() < 0:
            raise ValueError("unsigned SECDED encoding requires non-negative words")
        if arr.size and arr.max() >= (1 << width):
            raise ValueError(f"words do not fit {width} unsigned bits")
        return arr
    lo, hi = -(1 << (width - 1)), (1 << width) - 1
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"values do not fit {width}-bit storage words")
    return arr & ((1 << width) - 1)


def _unmask_signed(arr: np.ndarray, width: int, signed: bool) -> np.ndarray:
    if not signed:
        return arr
    sign_bit = np.int64(1) << (width - 1)
    return (arr ^ sign_bit) - sign_bit


@dataclass(frozen=True)
class SecdedReport:
    """Outcome of one SECDED decode pass over a word array."""

    #: Codewords decoded.
    words: int
    #: Single-bit errors corrected (data recovered exactly).
    corrected: int
    #: Double-bit errors detected but uncorrectable (words zero-filled).
    detected: int
    #: Boolean mask over the decoded array: True where detection fired.
    detected_mask: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecdedReport):
            return NotImplemented
        return (
            self.words == other.words
            and self.corrected == other.corrected
            and self.detected == other.detected
            and np.array_equal(self.detected_mask, other.detected_mask)
        )


def secded_encode(
    words: np.ndarray, width: int = 16, signed: bool = False
) -> np.ndarray:
    """Encode ``width``-bit words into SECDED codewords (same shape).

    ``signed`` selects a two's-complement data interpretation; codewords
    themselves are always unsigned ``codeword_bits(width)``-bit integers,
    which is the representation fault injectors corrupt.
    """
    tables = _tables(width)
    arr = np.asarray(words, dtype=np.int64)
    raw = _mask_signed(arr.reshape(-1), width, signed)
    return _gather(tables.encode, raw).reshape(arr.shape)


def secded_decode(
    codes: np.ndarray, width: int = 16, signed: bool = False
) -> tuple[np.ndarray, SecdedReport]:
    """Decode codewords back to data words, correcting what SECDED can.

    Returns ``(words, report)``; detected-uncorrectable words come back as
    zeros (the graceful-degradation ladder's first rung) with their
    positions marked in ``report.detected_mask``.
    """
    tables = _tables(width)
    n = codeword_bits(width)
    arr = np.asarray(codes, dtype=np.int64)
    flat = arr.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= (1 << n)):
        raise ValueError(f"words do not fit {n} unsigned bits")
    packed = _gather(tables.decode, flat)
    status = packed >> width
    out = (packed & ((np.int64(1) << width) - 1)) ^ tables.fix[status]
    out = _unmask_signed(out, width, signed)
    detected = tables.detected[status]
    out[detected] = 0
    counts = np.bincount(status, minlength=tables.fix.size)
    report = SecdedReport(
        words=int(arr.size),
        corrected=int(counts @ tables.correctable),
        detected=int(counts @ tables.detected),
        detected_mask=detected.reshape(arr.shape),
    )
    return out.reshape(arr.shape), report
