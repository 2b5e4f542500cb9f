"""Bit-level helpers for fixed-point value manipulation.

The Diffy paper reasons about activation storage in terms of the minimum
number of bits needed to represent values (profiled per-layer precisions,
Table III; dynamic per-group precisions, Section III-F).  These helpers
define that arithmetic in one place.
"""

from __future__ import annotations

import numpy as np

from repro.utils import timing
from repro.utils.validation import check_positive


def _word_dtype(width: int) -> np.dtype:
    """Smallest big-endian unsigned dtype holding a ``width``-bit word."""
    check_positive("width", width)
    for size in (1, 2, 4, 8):
        if width <= 8 * size:
            return np.dtype(f">u{size}")
    raise ValueError(f"width must be <= 64 bits, got {width}")


def words_to_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Explode unsigned ``width``-bit words into a flat MSB-first bit array.

    The bit order matches the codecs' packed streams (MSB first, as
    ``np.packbits`` emits them), which is what lets fault models and ECC
    codecs share one bit-level view of stored words.
    """
    dtype = _word_dtype(width)
    arr = np.asarray(words, dtype=np.int64).reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << width)):
        raise ValueError(f"words do not fit {width} unsigned bits")
    as_bytes = arr.astype(dtype).view(np.uint8).reshape(arr.size, dtype.itemsize)
    return np.unpackbits(as_bytes, axis=1)[:, 8 * dtype.itemsize - width :].reshape(-1)


def bits_to_words(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`words_to_bits` (bit count must divide evenly).

    Every element must be 0 or 1; anything else raises ``ValueError``
    rather than being weighted into a garbage word.
    """
    dtype = _word_dtype(width)
    flat = np.asarray(bits).reshape(-1)
    if flat.size % width:
        raise ValueError(f"{flat.size} bits is not a whole number of {width}-bit words")
    bad = np.flatnonzero((flat != 0) & (flat != 1))
    if bad.size:
        raise ValueError(
            f"bits must be 0 or 1, got {flat[bad[0]].item()!r} at index {int(bad[0])}"
        )
    rows = np.zeros((flat.size // width, 8 * dtype.itemsize), dtype=np.uint8)
    rows[:, rows.shape[1] - width :] = flat.reshape(-1, width)
    return np.packbits(rows, axis=1).view(dtype).reshape(-1).astype(np.int64)


def bits_for_magnitude(values: np.ndarray) -> np.ndarray:
    """Number of magnitude bits needed per element (0 for a zero value).

    For a non-negative integer ``v`` this is ``ceil(log2(v + 1))`` — the
    length of its binary representation.  Vectorized; accepts any integer
    array and returns ``int64``.

    ``frexp`` decomposes ``v = m * 2**e`` with ``0.5 <= m < 1``, so ``e``
    *is* ``bit_length(v)`` for positive integers and 0 for zero — one
    cheap ufunc pass instead of a masked ``log2``/``floor`` chain.  Exact
    for ``|v| < 2**53`` (beyond float64's integer range both approaches
    round identically).
    """
    mags = np.abs(np.asarray(values, dtype=np.int64))
    return np.frexp(mags)[1].astype(np.int64, copy=False)


def bits_for_signed(values: np.ndarray) -> np.ndarray:
    """Bits needed to store each element in two's complement (incl. sign).

    A zero needs 1 bit; a positive value ``v`` needs ``bit_length(v) + 1``
    bits; a negative value ``v`` needs ``bit_length(-v - 1) + 1`` bits
    (e.g. -1 → 1 bit pattern "1", stored in ≥1 bit; -8 → 4 bits).
    """
    arr = np.asarray(values, dtype=np.int64)
    return bits_for_magnitude(np.where(arr >= 0, arr, -arr - 1)) + 1


def signed_range(bits: int) -> tuple[int, int]:
    """Inclusive (min, max) representable in ``bits``-bit two's complement."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def quantize_to_width(
    values: np.ndarray, width: int, signed: bool = True
) -> "tuple[np.ndarray, int]":
    """Saturate an integer array to a ``width``-bit word, counting clips.

    This is the *one audited narrowing point*: every place the codebase
    squeezes integer values into a storage word routes through here, so
    out-of-range values are never silently truncated — the clipped count
    is returned (and accumulated on the ``precision.values_clipped``
    counter) where shadow counters and calibration audits can see it.

    ``signed`` selects the two's-complement range (deltas, accumulators)
    vs the unsigned magnitude range ``[0, 2**width - 1]`` (post-ReLU
    activations under a profiled precision).  When nothing clips, the
    input array is returned as-is (no copy) — the common in-range case
    costs one min/max pass.  A signed-integer input whose dtype holds the
    word's range keeps that dtype; anything else is taken at ``int64``.
    """
    if signed:
        lo, hi = signed_range(width)
    else:
        check_positive("width", width)
        lo, hi = 0, (1 << width) - 1
    arr = np.asarray(values)
    info = np.iinfo(arr.dtype) if arr.dtype.kind == "i" else None
    if info is None or lo < info.min or hi > info.max:
        arr = arr.astype(np.int64, copy=False)
    if arr.size == 0:
        return arr, 0
    if lo <= int(arr.min()) and int(arr.max()) <= hi:
        return arr, 0
    clipped = int(np.count_nonzero((arr < lo) | (arr > hi)))
    timing.count("precision.values_clipped", clipped)
    return np.clip(arr, lo, hi), clipped

