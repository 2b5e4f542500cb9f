"""Shared utilities: deterministic RNG handling, bit manipulation, validation.

These helpers are deliberately tiny and dependency-free so every other
subpackage can use them without import cycles.
"""

from repro.utils import timing
from repro.utils.rng import derive_seed, rng_for
from repro.utils.bits import (
    bits_for_magnitude,
    bits_for_signed,
    signed_range,
)
from repro.utils.validation import (
    check_axis,
    check_positive,
    check_nonnegative,
    check_in,
)

__all__ = [
    "timing",
    "derive_seed",
    "rng_for",
    "bits_for_magnitude",
    "bits_for_signed",
    "signed_range",
    "check_axis",
    "check_positive",
    "check_nonnegative",
    "check_in",
]
