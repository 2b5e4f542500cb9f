"""Digit-level recoder ``term_count_lut`` is checked against.

Production never lists a value's terms: :mod:`repro.core.booth` counts
nonzero digits for all 65536 words at once into a lookup table.  This
recoder spells out each signed power-of-two term, one digit at a time,
so a table entry can be compared with ``len(terms)`` and the terms with
the value they must sum to.
"""

from __future__ import annotations

from repro.core.booth import R4_DIGITS, WORD_BITS

#: Radix-4 Booth digit value per bit triplet (b_{2i+1}, b_{2i}, b_{2i-1}).
_R4_TABLE = (0, 1, 1, 2, -2, -1, -1, 0)


def r4_booth_digits(value: int) -> list[int]:
    """Radix-4 modified Booth terms (signed powers of two) of a value.

    >>> sum(r4_booth_digits(-12345)) == -12345
    True
    """
    v = int(value)
    if not -(1 << (WORD_BITS - 1)) <= v <= (1 << (WORD_BITS - 1)) - 1:
        raise ValueError(f"value {v} outside signed {WORD_BITS}-bit range")
    terms = []
    for i in range(R4_DIGITS):
        if i == 0:
            triplet = (v & 3) << 1  # b1 b0, with b_{-1} = 0
        else:
            triplet = (v >> (2 * i - 1)) & 7
        digit = _R4_TABLE[triplet]
        if digit:
            terms.append(digit * (1 << (2 * i)))
    return terms
