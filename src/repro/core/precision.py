"""Activation precision detection: profiled (static) and dynamic per-group.

The paper uses two precision mechanisms:

* **Profiled per-layer precisions** (Table III, after Judd et al. [3]):
  one precision per layer, determined offline over a profiling dataset, at
  which no accuracy is lost.  We realize this as the smallest width that
  represents every activation seen during profiling.

* **Dynamic per-group precisions** (Dynamic Stripes [33], Section III-F):
  activations are stored in groups of 16 with a 4-bit header giving the
  width all 16 values in the group are stored at.  Applied to raw values
  this is the paper's RawD16 scheme; applied to deltas it is DeltaD16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.utils.bits import bits_for_magnitude, quantize_to_width
from repro.utils.validation import check_positive

__all__ = [
    "HEADER_BITS",
    "MAX_PRECISION",
    "profiled_precision",
    "profiled_precision_tolerant",
    "GroupPrecisionEncoding",
    "group_precisions",
    "quantize_to_width",
]

#: Width of the per-group precision header (can encode widths 1..16).
HEADER_BITS = 4

#: Hardware word width that bounds any detected precision.
MAX_PRECISION = 16


def profiled_precision(arrays: Iterable[np.ndarray], signed: bool = False) -> int:
    """Smallest width representing every value across ``arrays``.

    ``signed`` selects two's-complement (deltas) vs magnitude-only
    (post-ReLU activations) accounting.  Result is clamped to
    :data:`MAX_PRECISION`: it is the width of one group holding each
    array's extremes.
    """
    extremes = []
    for arr in arrays:
        a = np.asarray(arr, dtype=np.int64)
        if a.size:
            extremes += [a.min(), a.max()]
    if not extremes:
        raise ValueError("profiled_precision needs at least one non-empty array")
    enc = group_precisions(np.array(extremes), len(extremes), signed=signed)
    return int(enc.precisions[0])


def profiled_precision_tolerant(
    arrays: Iterable[np.ndarray],
    signed: bool = False,
    clip_quantile: float = 0.999,
    lsb_tolerance: float = 0.005,
) -> int:
    """Accuracy-tolerant profiled precision (how Judd et al. profile [3]).

    The paper's profiled precisions are the smallest widths *at which the
    network's output quality does not degrade* — not exact value coverage.
    Two relaxations model that criterion without a task metric:

    - the covered range is the ``clip_quantile`` magnitude (rare outliers
      saturate harmlessly),
    - the least-significant step is allowed to be as coarse as
      ``lsb_tolerance`` of the nonzero-value RMS (quantization noise far
      below the signal level does not affect output quality).

    The result is the width of ``quantile / step`` plus a sign bit if
    requested, clamped to [1, MAX_PRECISION].
    """
    mags = []
    for arr in arrays:
        a = np.abs(np.asarray(arr, dtype=np.int64)).reshape(-1)
        if a.size:
            mags.append(a)
    if not mags:
        raise ValueError("profiled_precision_tolerant needs non-empty arrays")
    flat = np.concatenate(mags)
    top = float(np.quantile(flat, clip_quantile))
    nonzero = flat[flat > 0]
    if nonzero.size == 0:
        return 1
    rms = float(np.sqrt(np.mean(nonzero.astype(np.float64) ** 2)))
    step = max(rms * lsb_tolerance * np.sqrt(12.0), 1.0)
    levels = max(top / step, 1.0)
    bits = int(np.ceil(np.log2(levels + 1.0))) + (1 if signed else 0)
    return int(np.clip(bits, 1, MAX_PRECISION))


@dataclass(frozen=True)
class GroupPrecisionEncoding:
    """Result of dynamic per-group precision detection over one array.

    Attributes
    ----------
    group_size:
        Activations per group (16 in the paper's RawD16/DeltaD16).
    precisions:
        Detected width per group (the 4-bit header contents).
    values:
        Count of encoded values (including zero padding of the tail group).
    signed:
        Whether widths include a sign bit.
    """

    group_size: int
    precisions: np.ndarray
    values: int
    signed: bool

    @property
    def payload_bits(self) -> int:
        """Bits spent on activation payloads."""
        return int(self.precisions.sum()) * self.group_size

    @property
    def header_bits(self) -> int:
        """Bits spent on the 4-bit per-group precision headers."""
        return len(self.precisions) * HEADER_BITS

    @property
    def total_bits(self) -> int:
        """Payload plus metadata (what travels off-chip)."""
        return self.payload_bits + self.header_bits

    @property
    def mean_precision(self) -> float:
        return float(self.precisions.mean()) if len(self.precisions) else 0.0


def group_precisions(
    values: np.ndarray, group_size: int = 16, signed: bool = False
) -> GroupPrecisionEncoding:
    """Dynamic Stripes-style per-group precision detection.

    ``values`` is flattened in storage order and split into groups of
    ``group_size`` (the tail group is zero-padded, as the hardware pads the
    final memory line).  Each group's precision is the width of its
    widest member.
    """
    check_positive("group_size", group_size)
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    n = flat.size
    if n == 0:
        return GroupPrecisionEncoding(group_size, np.zeros(0, dtype=np.int64), 0, signed)
    if signed:
        # x for x >= 0 and -x - 1 for x < 0: the magnitude whose bit length
        # plus a sign bit is x's two's-complement width.
        mags = flat ^ (flat >> 63)
    elif flat.min() < 0:
        raise ValueError("unsigned precision requested for values with negatives")
    else:
        mags = flat
    # Width is monotone in the magnitude, so reduce each group to its
    # largest magnitude first and count bits once per group.  Magnitudes
    # are non-negative, so the tail group's zero padding never wins.
    full = n - n % group_size
    top = mags[:full].reshape(-1, group_size).max(axis=1)
    if full < n:
        top = np.append(top, mags[full:].max())
    bits = bits_for_magnitude(top)
    # A group of all zeros still stores `group_size` 1-bit values: the
    # header cannot encode width 0.
    widths = bits + 1 if signed else np.maximum(bits, 1)
    precisions = np.minimum(widths, MAX_PRECISION)
    return GroupPrecisionEncoding(group_size, precisions, len(top) * group_size, signed)
