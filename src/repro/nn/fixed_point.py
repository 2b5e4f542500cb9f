"""16-bit fixed-point tensor type.

Diffy (like VAA and PRA) stores activations and weights as 16-bit signed
fixed-point numbers.  A :class:`FixedPointTensor` pairs an integer numpy
array with a *scale*: the number of fractional bits, so that the real value
of an element ``v`` is ``v / 2**scale``.

Arithmetic (convolution accumulators, requantization, residual adds)
runs on ``int64`` carriers to leave headroom; the *represented* values
always fit the 16-bit signed range unless stated otherwise.  Stored maps
are narrower: an activation trace keeps each map at its true width
(:func:`narrowest_copy`, normally ``int16``), and the kernels that read
traces widen only where their arithmetic needs the extra bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bits import quantize_to_width, signed_range

#: Activation / weight word width used by all three accelerators (bits).
ACT_BITS = 16

#: Fractional bits used to represent the 8-bit input image pixels.
#: A pixel intensity in [0, 1] maps to an integer in [0, 256].
INPUT_SCALE = 8


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round a float array half away from zero, returning ``int64``.

    This matches the behaviour of a typical fixed-point requantization
    rounder (add half an LSB to the magnitude, then truncate).
    ``np.round`` is unsuitable because it rounds half to even.
    """
    arr = np.asarray(values, dtype=np.float64)
    return np.sign(arr).astype(np.int64) * np.floor(np.abs(arr) + 0.5).astype(np.int64)


def quantize(values: np.ndarray, scale: int, bits: int = ACT_BITS) -> np.ndarray:
    """Quantize a float array to ``bits``-bit fixed point with ``scale``.

    Values outside the representable range saturate, as hardware would —
    through the audited narrowing point, so clips are counted.
    """
    ints = round_half_away(np.asarray(values, dtype=np.float64) * (1 << scale))
    return quantize_to_width(ints, bits)[0]


def narrowest_copy(values: np.ndarray) -> np.ndarray:
    """A copy of integer ``values`` at the narrowest of ``int16``, ``int32``
    and ``int64`` that holds every element.

    Only the dtype changes; no value is clipped.  This is how traces store
    maps: a saturated 16-bit activation map comes back as ``int16``, and a
    map with any value outside 16 bits stays exact at a wider dtype.
    """
    arr = np.asarray(values)
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return arr.astype(dtype)
    return arr.astype(np.int64)


def dequantize(values: np.ndarray, scale: int) -> np.ndarray:
    """Convert fixed-point integers back to float reals."""
    return np.asarray(values, dtype=np.float64) / (1 << scale)


def requantize_shift(values: np.ndarray, shift: int, bits: int = ACT_BITS) -> np.ndarray:
    """Arithmetic round-half-away right shift followed by saturation.

    Used when a convolution accumulator (at scale ``in + w``) is narrowed
    back to the activation word width (at the layer output scale).
    ``shift`` must be non-negative.
    """
    if shift < 0:
        raise ValueError(f"requantize shift must be >= 0, got {shift}")
    arr = np.asarray(values, dtype=np.int64)
    if shift == 0:
        shifted = arr
    else:
        half = np.int64(1) << (shift - 1)
        # Round-half-away-from-zero on magnitudes keeps the rounder
        # symmetric for positive and negative accumulator values.
        shifted = np.sign(arr) * ((np.abs(arr) + half) >> shift)
    return quantize_to_width(shifted, bits)[0]


@dataclass(frozen=True)
class FixedPointTensor:
    """An integer array plus its fixed-point scale.

    Attributes
    ----------
    values:
        Integer array (``int64`` carrier); every element must fit in the
        ``bits``-bit signed range.
    scale:
        Number of fractional bits; real value = ``values / 2**scale``.
    bits:
        Word width of the represented values (default 16).
    """

    values: np.ndarray
    scale: int
    bits: int = ACT_BITS

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", vals)
        lo, hi = signed_range(self.bits)
        if vals.size and (vals.min() < lo or vals.max() > hi):
            raise ValueError(
                f"values out of {self.bits}-bit signed range "
                f"[{lo}, {hi}]: min={vals.min()}, max={vals.max()}"
            )

    @classmethod
    def from_float(
        cls, values: np.ndarray, scale: int, bits: int = ACT_BITS
    ) -> "FixedPointTensor":
        """Quantize a float array (saturating) into a fixed-point tensor."""
        return cls(quantize(values, scale, bits), scale, bits)

    def to_float(self) -> np.ndarray:
        """Dequantize back to a float64 array."""
        return dequantize(self.values, self.scale)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.values)
