"""Bit-matrix SECDED and shift-based bit explosion: the ECC spec.

Every word becomes a ``uint8`` row with one column per codeword bit:
data bits are scattered into the non-power-of-two Hamming positions and
parities are read off a positions-by-syndrome bit matrix.  That is the
textbook construction, legible and slow.  The production codec in
:mod:`repro.protect.ecc` works on whole words through per-byte tables
and must match these functions exactly: same codewords, same decoded
words, the same :class:`~repro.protect.ecc.SecdedReport`, and the same
``ValueError`` on out-of-range input.

``words_to_bits``/``bits_to_words`` are the shift-and-weight versions of
the :mod:`repro.utils.bits` helpers, which now go through
``np.unpackbits``/``np.packbits``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.protect.ecc import SecdedReport
from repro.utils.validation import check_positive


def words_to_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Spec of :func:`repro.utils.bits.words_to_bits` (MSB-first bits)."""
    check_positive("width", width)
    arr = np.asarray(words, dtype=np.int64).reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << width)):
        raise ValueError(f"words do not fit {width} unsigned bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((arr[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def bits_to_words(bits: np.ndarray, width: int) -> np.ndarray:
    """Spec of :func:`repro.utils.bits.bits_to_words` for 0/1 input."""
    check_positive("width", width)
    flat = np.asarray(bits, dtype=np.int64).reshape(-1)
    if flat.size % width:
        raise ValueError(f"{flat.size} bits is not a whole number of {width}-bit words")
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    return (flat.reshape(-1, width) * weights).sum(axis=1)


@lru_cache(maxsize=None)
def _layout(width: int) -> tuple:
    """Hamming layout for ``width`` data bits.

    Returns ``(r, n_hamming, data_positions, parity_positions, pos_bits)``
    where positions are 1-indexed codeword positions (powers of two hold
    parity), and ``pos_bits[p-1, j]`` is bit ``j`` of position ``p`` — the
    syndrome contribution matrix.
    """
    check_positive("width", width)
    r = 1
    while (1 << r) < width + r + 1:
        r += 1
    n_hamming = width + r
    positions = np.arange(1, n_hamming + 1)
    is_parity = (positions & (positions - 1)) == 0
    data_pos = positions[~is_parity]
    parity_pos = positions[is_parity]
    pos_bits = ((positions[:, None] >> np.arange(r)) & 1).astype(np.uint8)
    return r, n_hamming, data_pos, parity_pos, pos_bits


def _mask_signed(arr: np.ndarray, width: int, signed: bool) -> np.ndarray:
    if not signed:
        if arr.size and arr.min() < 0:
            raise ValueError("unsigned SECDED encoding requires non-negative words")
        return arr
    lo, hi = -(1 << (width - 1)), (1 << width) - 1
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"values do not fit {width}-bit storage words")
    return arr & ((1 << width) - 1)


def _unmask_signed(arr: np.ndarray, width: int, signed: bool) -> np.ndarray:
    if not signed:
        return arr
    sign_bit = np.int64(1) << (width - 1)
    return np.where(arr & sign_bit, arr - (np.int64(1) << width), arr)


def secded_encode(
    words: np.ndarray, width: int = 16, signed: bool = False
) -> np.ndarray:
    """Spec of :func:`repro.protect.ecc.secded_encode`."""
    r, n_hamming, data_pos, parity_pos, pos_bits = _layout(width)
    arr = np.asarray(words, dtype=np.int64)
    raw = _mask_signed(arr.reshape(-1), width, signed)
    data = words_to_bits(raw, width).reshape(-1, width)
    code = np.zeros((data.shape[0], n_hamming), dtype=np.uint8)
    code[:, data_pos - 1] = data
    # With parity positions still zero the syndrome is the data
    # contribution alone; position 2^j touches only syndrome bit j, so
    # writing the syndrome into the parity slots zeroes the total.
    code[:, parity_pos - 1] = ((code.astype(np.int64) @ pos_bits) % 2).astype(np.uint8)
    overall = code.sum(axis=1, dtype=np.int64) % 2
    full = np.concatenate([code, overall[:, None].astype(np.uint8)], axis=1)
    return bits_to_words(full.reshape(-1), n_hamming + 1).reshape(arr.shape)


def secded_decode(
    codes: np.ndarray, width: int = 16, signed: bool = False
) -> "tuple[np.ndarray, SecdedReport]":
    """Spec of :func:`repro.protect.ecc.secded_decode`."""
    r, n_hamming, data_pos, _, pos_bits = _layout(width)
    arr = np.asarray(codes, dtype=np.int64)
    bits = words_to_bits(arr.reshape(-1), n_hamming + 1).reshape(-1, n_hamming + 1)
    ham = bits[:, :n_hamming].copy()
    syn_bits = (ham.astype(np.int64) @ pos_bits) % 2
    syndrome = syn_bits @ (np.int64(1) << np.arange(r))
    odd_parity = bits.sum(axis=1, dtype=np.int64) % 2 == 1
    # Odd parity with a valid syndrome: correct that bit (syndrome 0 means
    # the overall parity bit itself flipped — data already intact).
    correctable = odd_parity & (syndrome <= n_hamming)
    fix = np.flatnonzero(correctable & (syndrome > 0))
    ham[fix, syndrome[fix] - 1] ^= 1
    # Even parity with a nonzero syndrome is the classic double error; an
    # odd-weight multi-error pointing past the codeword is also detected.
    detected = (~odd_parity & (syndrome != 0)) | (odd_parity & (syndrome > n_hamming))
    out = bits_to_words(ham[:, data_pos - 1].reshape(-1), width)
    out = _unmask_signed(out, width, signed)
    out[detected] = 0
    report = SecdedReport(
        words=int(arr.size),
        corrected=int(correctable.sum()),
        detected=int(detected.sum()),
        detected_mask=detected.reshape(arr.shape),
    )
    return out.reshape(arr.shape), report
