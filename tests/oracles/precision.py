"""The per-value group width rule ``group_precisions`` is checked against.

Production reduces each group to its largest magnitude and counts bits
once per group.  This spec counts every value's width first and then
takes each group's widest member — the rule as the paper states it
(Dynamic Stripes, Section III-F) — with the tail group zero-padded and
widths clamped to the 16-bit word.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import bits_for_magnitude, bits_for_signed

#: Hardware word width that bounds any group width.
MAX_PRECISION = 16


def required_bits(values: np.ndarray, signed: bool) -> np.ndarray:
    """Width of each value: two's complement incl. sign, or magnitude (>= 1)."""
    if signed:
        return bits_for_signed(values)
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError("unsigned precision requested for values with negatives")
    return np.maximum(bits_for_magnitude(arr), 1)


def group_widths(values: np.ndarray, group_size: int, signed: bool) -> np.ndarray:
    """Per-group widths: every value's width, then the max per group."""
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, dtype=np.int64)
    pad = (-flat.size) % group_size
    flat = np.concatenate([flat, np.zeros(pad, dtype=np.int64)])
    widest = required_bits(flat, signed).reshape(-1, group_size).max(axis=1)
    return np.minimum(widest, MAX_PRECISION)
