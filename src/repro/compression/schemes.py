"""Bit-exact activation compression schemes (Section II-E, III-F).

Every scheme answers one question: *how many bits does this feature map
occupy in storage / on the bus, metadata included?*  Feature maps are laid
out in brick order — channel innermost, i.e. ``(H, W, C)`` flattened — the
natural layout for an accelerator that consumes 16-channel bricks and the
layout Dynamic Stripes groups are formed in.

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
from repro.core.precision import HEADER_BITS, group_precisions
from repro.utils.validation import check_positive

#: Run/skip field width of the RLE token formats.
RLE_COUNT_BITS = 4

#: Values a single RLE token can cover (15 skipped + the stored value).
_RLE_SPAN = (1 << RLE_COUNT_BITS) - 1


def storage_order(fmap: np.ndarray) -> np.ndarray:
    """Flatten a (C, H, W) map to brick order (channel innermost).

    This is the AM layout Diffy/PRA/VAA consume (16-channel bricks) and
    the order Dynamic Stripes groups are formed in.
    """
    arr = np.asarray(fmap, dtype=np.int64)
    if arr.ndim != 3:
        raise ValueError(f"expected (C, H, W) map, got shape {arr.shape}")
    return np.transpose(arr, (1, 2, 0)).reshape(-1)


def planar_order(fmap: np.ndarray) -> np.ndarray:
    """Flatten a (C, H, W) map in planar order (width innermost).

    The layout SCNN-style run-length encoders scan: zeros cluster along
    image rows, which is what makes their runs worth encoding at all.
    """
    arr = np.asarray(fmap, dtype=np.int64)
    if arr.ndim != 3:
        raise ValueError(f"expected (C, H, W) map, got shape {arr.shape}")
    return arr.reshape(-1)


class CompressionScheme:
    """Base class; subclasses implement :meth:`encoded_bits`."""

    name: str = "base"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        """Bits to store ``fmap`` (a (C, H, W) integer map), metadata included.

        ``profiled_precision`` is only consulted by the Profiled scheme.
        """
        raise NotImplementedError

    @property
    def key(self) -> tuple:
        """The class and every instance field: all that sets the bit count.

        The name alone is not enough: ``DeltaDynamic(16, axis="y")`` is
        also named ``DeltaD16``.
        """
        return (type(self), *sorted(vars(self).items()))

    def bits_per_value(self, fmap: np.ndarray, profiled_precision: int = 16) -> float:
        """Average encoded bits per activation."""
        n = int(np.asarray(fmap).size)
        if n == 0:
            raise ValueError("empty feature map")
        return self.encoded_bits(fmap, profiled_precision) / n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<scheme {self.name}>"


class NoCompression(CompressionScheme):
    """16 bits per value, no metadata."""

    name = "NoCompression"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        return int(np.asarray(fmap).size) * 16


class RLEZero(CompressionScheme):
    """Zero-skipping RLE: (4b skip, 16b value) tokens (planar scan)."""

    name = "RLEz"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
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

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        flat = planar_order(fmap)
        token_bits = 16 + RLE_COUNT_BITS
        if flat.size == 0:
            return 0
        # Run boundaries wherever the value changes.
        change = np.flatnonzero(np.diff(flat)) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [flat.size]])
        lengths = ends - starts
        tokens = int(np.ceil(lengths / (_RLE_SPAN + 1)).sum())
        return tokens * token_bits


class Profiled(CompressionScheme):
    """Per-layer profile-derived precision (Judd et al. [3], Table III)."""

    name = "Profiled"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        check_positive("profiled_precision", profiled_precision)
        if profiled_precision > 16:
            raise ValueError(f"profiled precision > 16: {profiled_precision}")
        return int(np.asarray(fmap).size) * profiled_precision


class RawDynamic(CompressionScheme):
    """Dynamic per-group precisions on raw values (Dynamic Stripes [33])."""

    def __init__(self, group_size: int = 16):
        check_positive("group_size", group_size)
        self.group_size = group_size
        self.name = f"RawD{group_size}"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
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

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        arr = np.asarray(fmap, dtype=np.int64)
        if arr.ndim != 3:
            raise ValueError(f"expected (C, H, W) map, got shape {arr.shape}")
        deltas = spatial_deltas(arr, axis=self.axis)
        flat = planar_order(deltas)
        return group_precisions(flat, self.group_size, signed=True).total_bits


class RawEcc(CompressionScheme):
    """Raw 16-bit words stored as SECDED codewords (22 bits/word).

    The conventional reliability baseline: no compression, every stored
    word individually correctable/detectable.  Sized here so protected
    variants appear alongside the paper's schemes in Fig 5/Fig 14.
    """

    name = "Raw16-ECC"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        from repro.protect.ecc import codeword_bits

        return int(np.asarray(fmap).size) * codeword_bits(16)


class DeltaProtected(CompressionScheme):
    """DeltaD{g} under a protection policy (:mod:`repro.protect`).

    Prices the full protected container of
    :func:`repro.protect.stream.protected_bits`: SECDED keyframe anchors,
    per-group CRC-8, and SECDED stream chunks — the storage cost of
    bounding DeltaD16's error runs.
    """

    def __init__(self, group_size: int = 16, policy_name: str = "full"):
        check_positive("group_size", group_size)
        self.group_size = group_size
        self.policy_name = policy_name
        self.name = f"DeltaD{group_size}-P"

    def encoded_bits(self, fmap: np.ndarray, profiled_precision: int = 16) -> int:
        # Function-level import: schemes is imported by the codec that the
        # protect package builds on, so a top-level import would cycle.
        from repro.protect.policy import protection_policy
        from repro.protect.stream import protected_bits

        return protected_bits(fmap, protection_policy(self.policy_name), self.group_size)


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

#: Per-group header width re-export for traffic metadata accounting.
GROUP_HEADER_BITS = HEADER_BITS


def scheme(name: str) -> CompressionScheme:
    """Look up a compression scheme by name."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {sorted(SCHEMES)}"
        ) from None
