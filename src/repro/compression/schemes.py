"""Bit-exact activation compression schemes (Section II-E, III-F).

Every scheme answers one question: *how many bits does this feature map
occupy in storage / on the bus, metadata included?*  Every scheme scans
a feature map in planar order (:func:`planar_order`: ``(C, H, W)``
flattened, width innermost).

Schemes
-------
- ``NoCompression``: every value 16 bits.
- ``RLEz``: zero run-length encoding; each token is a 16b value plus a 4b
  count of zeros skipped before it (zero runs longer than 15 need escape
  tokens).  Captures activation sparsity only.
- ``RLE``: run-length encoding of *repeated* values; each token is a 16b
  value plus a 4b run length.
- ``Profiled``: per-layer profile-derived precision (Table III).
- ``RawD{g}``: dynamic per-group precisions on raw values, group size g,
  4-bit header per group (RawD16/RawD8/RawD256 in Fig 14).
- ``DeltaD{g}``: dynamic per-group precisions on the X-axis deltas (raw
  first column per row): the paper's scheme.  Deltas are signed, so widths
  include a sign bit.

Dynamic-precision groups are formed in planar order — 16 consecutive
activations of one feature-map row, matching the Proteus-style virtual
column layout the paper stores compressed activations in (Section III-F);
run-length schemes scan the same order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.deltas import spatial_deltas
from repro.core.layer_memo import instance_key
from repro.core.precision import group_precisions
from repro.utils.validation import check_integer_array, check_positive

#: Run/skip field width of the RLE token formats.
RLE_COUNT_BITS = 4

#: Values a single RLE token can cover (15 skipped + the stored value).
_RLE_SPAN = (1 << RLE_COUNT_BITS) - 1


def planar_order(fmap: np.ndarray) -> np.ndarray:
    """Flatten a (C, H, W) map in planar order (width innermost).

    The layout SCNN-style run-length encoders scan: zeros cluster along
    image rows, which is what makes their runs worth encoding at all.
    """
    arr = check_integer_array("fmap", fmap)
    if arr.ndim != 3:
        raise ValueError(f"expected (C, H, W) map, got shape {arr.shape}")
    return arr.reshape(-1)


class CompressionScheme:
    """Base class; subclasses implement :meth:`_bits`."""

    name: str = "base"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        """Bits to store ``fmap`` (a (C, H, W) integer map), metadata included.

        ``profiled_precision`` is only consulted by the Profiled scheme.
        A map that is not an integer array raises ``ValueError``; integer
        maps keep their own dtype.
        """
        return self._bits(check_integer_array("fmap", fmap), profiled_precision)

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        raise NotImplementedError

    @property
    def key(self) -> tuple:
        """The class and every instance field: all that sets the bit count
        (:func:`repro.core.layer_memo.instance_key`)."""
        return instance_key(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<scheme {self.name}>"


class NoCompression(CompressionScheme):
    """16 bits per value, no metadata."""

    name = "NoCompression"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        return fmap.size * 16


class RLEZero(CompressionScheme):
    """Zero-skipping RLE: (4b skip, 16b value) tokens (planar scan)."""

    name = "RLEz"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        flat = planar_order(fmap)
        nz = np.flatnonzero(flat)
        token_bits = 16 + RLE_COUNT_BITS
        if nz.size == 0:
            # All zeros: escape tokens each covering 16 zeros.
            return math.ceil(flat.size / (_RLE_SPAN + 1)) * token_bits
        gaps = np.empty(nz.size, dtype=np.int64)
        gaps[0] = nz[0]
        gaps[1:] = np.diff(nz) - 1
        # Each escape token absorbs 16 zeros (skip=15 plus a stored zero).
        escapes = int((gaps // (_RLE_SPAN + 1)).sum())
        trailing = flat.size - 1 - int(nz[-1])
        escapes += math.ceil(trailing / (_RLE_SPAN + 1))
        return (nz.size + escapes) * token_bits


class RLERepeat(CompressionScheme):
    """Repeated-value RLE: (4b run length, 16b value) tokens (planar scan)."""

    name = "RLE"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        flat = planar_order(fmap)
        token_bits = 16 + RLE_COUNT_BITS
        if flat.size == 0:
            return 0
        # Run boundaries wherever the value changes.
        change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [flat.size]])
        lengths = ends - starts
        tokens = int(np.ceil(lengths / (_RLE_SPAN + 1)).sum())
        return tokens * token_bits


class Profiled(CompressionScheme):
    """Per-layer profile-derived precision (Judd et al. [3], Table III)."""

    name = "Profiled"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        check_positive("profiled_precision", profiled_precision)
        if profiled_precision > 16:
            raise ValueError(f"profiled precision > 16: {profiled_precision}")
        return fmap.size * profiled_precision


class RawDynamic(CompressionScheme):
    """Dynamic per-group precisions on raw values (Dynamic Stripes [33])."""

    def __init__(self, group_size: int = 16):
        check_positive("group_size", group_size)
        self.group_size = group_size
        self.name = f"RawD{group_size}"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        flat = planar_order(fmap)
        signed = bool(flat.size and flat.min() < 0)
        return group_precisions(flat, self.group_size, signed=signed).total_bits


class DeltaDynamic(CompressionScheme):
    """The paper's scheme: per-group dynamic precisions on X-axis deltas.

    The first value of each row stays raw (it heads the differential
    chain); deltas are signed so group widths include a sign bit.
    """

    def __init__(self, group_size: int = 16, axis: str = "x"):
        check_positive("group_size", group_size)
        self.group_size = group_size
        self.axis = axis
        self.name = f"DeltaD{group_size}"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        if fmap.ndim != 3:
            raise ValueError(f"expected (C, H, W) map, got shape {fmap.shape}")
        deltas = spatial_deltas(fmap, axis=self.axis)
        flat = planar_order(deltas)
        return group_precisions(flat, self.group_size, signed=True).total_bits


class RawEcc(CompressionScheme):
    """Raw 16-bit words stored as SECDED codewords (22 bits/word).

    The conventional reliability baseline: no compression, every stored
    word individually correctable/detectable.  Sized here so protected
    variants appear alongside the paper's schemes in Fig 5/Fig 14.
    """

    name = "Raw16-ECC"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        from repro.protect.ecc import codeword_bits

        return fmap.size * codeword_bits(16)


class DeltaProtected(CompressionScheme):
    """DeltaD{g} under the ``full`` protection policy (:mod:`repro.protect`).

    Prices the full protected container of
    :func:`repro.protect.stream.protected_bits`: SECDED keyframe anchors,
    per-group CRC-8, and SECDED stream chunks — the storage cost of
    bounding DeltaD16's error runs.
    """

    def __init__(self, group_size: int = 16):
        check_positive("group_size", group_size)
        self.group_size = group_size
        self.name = f"DeltaD{group_size}-P"

    def _bits(self, fmap: np.ndarray, profiled_precision: int) -> int:
        # Function-level import: schemes is imported by the codec that the
        # protect package builds on, so a top-level import would cycle.
        from repro.protect.policy import protection_policy
        from repro.protect.stream import protected_bits

        return protected_bits(fmap, protection_policy("full"), self.group_size)


#: Named scheme registry covering every scheme in Figs 5 and 14.
SCHEMES: dict[str, CompressionScheme] = {
    s.name: s
    for s in (
        NoCompression(),
        RLEZero(),
        RLERepeat(),
        Profiled(),
        RawDynamic(8),
        RawDynamic(16),
        RawDynamic(256),
        DeltaDynamic(16),
        DeltaDynamic(256),
        RawEcc(),
        DeltaProtected(16),
    )
}


def scheme(name: str) -> CompressionScheme:
    """Look up a compression scheme by name."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {sorted(SCHEMES)}"
        ) from None
