"""Effectual-term counting via modified Booth (signed power-of-two) recoding.

PRA — and therefore Diffy — multiplies a weight by an activation one
*effectual term* at a time: the activation is recoded into signed powers of
two and each nonzero term costs one cycle on a shifter/adder (Eq 2 and the
surrounding discussion in Section II-B).  The recoder is PRA's radix-4
modified Booth: the activation's 16 bits become 8 signed digits in
{-2, -1, 0, +1, +2}, each nonzero digit a signed power of two.  This is
what PRA's offset generators implement in hardware.

Example: 7 = 0b0111 costs three add terms raw, two recoded (+8, -1).

Per-value term counts are precomputed into a 65536-entry ``uint8`` lookup
table so that counting terms over multi-megabyte activation traces is a
single fancy index.  A count never exceeds 8, so the term maps stay
``uint8`` too: one byte per activation.  Consumers that subtract or sum
them widen first.  The digit-at-a-time recoder that lists each term
lives in ``tests/oracles/booth.py`` as the table's spec.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.validation import check_integer_array

#: Word width the recoder supports (activation/delta storage width).
WORD_BITS = 16

#: Radix-4 digit count for a 16-bit word.
R4_DIGITS = WORD_BITS // 2


def _r4_counts_for_all_words() -> np.ndarray:
    """Vectorized radix-4 Booth nonzero-digit count for every 16-bit word."""
    raw = np.arange(1 << WORD_BITS, dtype=np.int64)
    values = np.where(raw >= (1 << (WORD_BITS - 1)), raw - (1 << WORD_BITS), raw)
    counts = np.zeros(values.shape, dtype=np.uint8)
    for i in range(R4_DIGITS):
        if i == 0:
            triplet = (values & 3) << 1
        else:
            triplet = (values >> (2 * i - 1)) & 7
        nonzero = (triplet != 0) & (triplet != 7)
        counts += nonzero.astype(np.uint8)
    return counts


@lru_cache(maxsize=None)
def term_count_lut() -> np.ndarray:
    """The (read-only) 65536-entry effectual-term-count lookup table."""
    lut = _r4_counts_for_all_words()
    lut.setflags(write=False)
    return lut


def booth_terms(values: np.ndarray) -> np.ndarray:
    """Effectual-term count per element of a signed 16-bit integer array.

    This is the number of cycles a PRA/Diffy serial inner-product unit
    spends on each value (zero values cost zero cycles), as ``uint8``:
    widen before subtracting or summing.  An ``int16`` array indexes the
    table through its ``uint16`` view with no range scan; any other
    integer array is range-checked, then narrowed to that same view.
    """
    arr = check_integer_array("values", values)
    if arr.dtype != np.int16:
        lo, hi = -(1 << (WORD_BITS - 1)), (1 << (WORD_BITS - 1)) - 1
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(
                f"values outside signed {WORD_BITS}-bit range: "
                f"min={arr.min()}, max={arr.max()}"
            )
        arr = arr.astype(np.int16)
    return term_count_lut()[arr.view(np.uint16)]
