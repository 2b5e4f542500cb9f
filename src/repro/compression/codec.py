"""Bitstream codecs: actually encode/decode the storage formats.

The scheme classes in :mod:`repro.compression.schemes` *count* bits; this
module packs real bitstreams and unpacks them back, proving that the
formats are decodable and that the counted sizes are achievable.  The
round-trip property (``decode(encode(x)) == x``) is exercised by
hypothesis tests; ``encoded bits == scheme.encoded_bits`` ties the codecs
to the accounting used by every footprint/traffic experiment.

Format implemented:

- :class:`GroupCodec` — the dynamic per-group precision format of
  RawD{g}/DeltaD{g}: a 4-bit width header per group followed by
  ``group_size`` values at that width (two's complement when signed).
  With ``checksum=True`` every group is followed by a CRC-8 of its header
  and payload bits, the detection rung of the :mod:`repro.protect`
  ladder: a lenient decode zero-fills and *flags* mismatching groups
  instead of silently desynchronizing.

It operates on flat integer streams (use
:func:`repro.compression.schemes.planar_order` to linearize maps).

Encode and decode are whole-array numpy bit-plane operations
(:mod:`repro.compression.bitplane`).  The value-at-a-time definition of
the format lives in ``tests/oracles/`` as the executable spec; the
property suites hold the codec byte-identical to it on every stream,
corrupted and truncated ones included.  Every call is counted per
stream family in the :mod:`repro.utils.timing` registry:
``codec.<activation|weight>.{encodes,decodes,encoded_bits,decoded_values}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import bitplane
from repro.compression.bitplane import CHECKSUM_BITS  # noqa: F401  (public re-export)
from repro.core.precision import MAX_PRECISION
from repro.utils import timing
from repro.utils.validation import (
    check_dtype,
    check_finite,
    check_integer,
    check_nonnegative,
    check_positive_integer,
    check_shape,
)


def _note_codec_call(
    kind: str, bits: int, values: int, codec: str = "activation"
) -> None:
    """Count one encode/decode of the ``codec`` stream family."""
    if kind == "encode":
        timing.count(f"codec.{codec}.encodes")
        timing.count(f"codec.{codec}.encoded_bits", bits)
    else:
        timing.count(f"codec.{codec}.decodes")
        timing.count(f"codec.{codec}.decoded_values", values)


def _as_int_stream(name: str, values: np.ndarray, signed: bool) -> np.ndarray:
    """Validate and flatten a codec input to an int64 stream.

    Uniform ``ValueError``s for adversarial inputs: wrong dtypes, NaN or
    infinity, non-integral floats, and values outside the 16-bit range the
    hardware word width can represent.  Float arrays are accepted only when
    exactly integral (legacy callers pass integer-valued float maps).
    """
    arr = check_dtype(name, values, kinds="iuf")
    check_shape(name, arr, min_ndim=1)
    if arr.dtype.kind == "f":
        check_finite(name, arr)
        if arr.size and not (arr == np.floor(arr)).all():
            raise ValueError(f"{name} must contain integral values, got fractional floats")
    flat = arr.astype(np.int64, copy=False).reshape(-1)
    if flat.size:
        lo, hi = int(flat.min()), int(flat.max())
        if signed:
            if lo < -(1 << (MAX_PRECISION - 1)) or hi >= (1 << (MAX_PRECISION - 1)):
                raise ValueError(
                    f"{name} exceeds the signed {MAX_PRECISION}-bit range: "
                    f"[{lo}, {hi}]"
                )
        else:
            if lo < 0:
                raise ValueError(f"{name} must be non-negative for unsigned encoding, min is {lo}")
            if hi >= (1 << MAX_PRECISION):
                raise ValueError(
                    f"{name} exceeds the unsigned {MAX_PRECISION}-bit range: max is {hi}"
                )
    return flat


def _check_encoded(encoded: Encoded, strict: bool) -> None:
    """Validate an :class:`Encoded` container before decoding it.

    ``bits`` and ``values`` must be non-negative integers in both modes.
    Only ``strict`` also requires the buffer to hold ``bits`` bits:
    fault campaigns decode truncated streams leniently on purpose.
    """
    for name in ("bits", "values"):
        value = check_integer(f"encoded.{name}", getattr(encoded, name))
        check_nonnegative(f"encoded.{name}", value)
    if strict and len(encoded.data) * 8 < encoded.bits:
        raise ValueError(
            f"encoded stream is truncated: {len(encoded.data)} bytes cannot "
            f"hold {encoded.bits} bits"
        )


@dataclass(frozen=True)
class Encoded:
    """An encoded stream plus the exact payload size in bits."""

    data: bytes
    bits: int
    values: int


class GroupCodec:
    """Dynamic per-group precision codec (the RawD/DeltaD wire format).

    ``checksum=True`` appends a CRC-8 of each group's header+payload bits
    right after the group (``CHECKSUM_BITS`` per group of overhead) — the
    detection mechanism of :mod:`repro.protect`'s checksummed streams.
    """

    def __init__(
        self, group_size: int = 16, signed: bool = False, checksum: bool = False
    ):
        self.group_size = check_positive_integer("group_size", group_size)
        self.signed = signed
        self.checksum = checksum

    def encode(self, values: np.ndarray) -> Encoded:
        """Pack a flat integer stream; tail groups are zero padded."""
        flat = _as_int_stream("values", values, signed=self.signed)
        data, bits = bitplane.group_encode(
            flat, self.group_size, self.signed, self.checksum
        )
        _note_codec_call("encode", bits, int(flat.size))
        return Encoded(data=data, bits=bits, values=int(flat.size))

    def decode(self, encoded: Encoded, strict: bool = True) -> np.ndarray:
        """Unpack back to the original flat stream (padding stripped).

        With ``strict=True`` (the default) any inconsistency — a truncated
        buffer, a bit count that disagrees with the accounting, or a group
        checksum mismatch — raises ``ValueError``: the stream is not what
        :meth:`encode` produced.

        With ``strict=False`` the decoder behaves like the hardware unit it
        models: it decodes whatever arrives, tolerating corrupted headers
        that desynchronize the stream.  Values past the point of exhaustion
        come back as zeros and no size cross-check is performed.  This is
        the entry point the fault-injection campaign drives
        (:mod:`repro.faults`).  In checksum mode mismatching groups are
        zero-filled; use :meth:`decode_flagged` to also learn *which*
        groups degraded.
        """
        return self.decode_flagged(encoded, strict=strict)[0]

    def decode_flagged(
        self,
        encoded: Encoded,
        strict: bool = True,
        suspect_bits: "tuple[tuple[int, int], ...]" = (),
    ) -> "tuple[np.ndarray, tuple[int, ...]]":
        """Decode and report the group indices the checksum rejected.

        Returns ``(values, flagged)``.  ``flagged`` is empty without
        checksums; with them, a lenient decode zero-fills every group whose
        stored CRC-8 disagrees with its decoded bits — plus every group
        past a stream exhaustion — and lists those indices so recovery
        layers (:mod:`repro.protect.stream`) can bound the damage instead
        of trusting silently-desynchronized values.

        ``suspect_bits`` is a sequence of half-open ``(start, end)`` bit
        ranges an upstream layer already knows are damaged (e.g. stream
        chunks SECDED zero-filled).  Any group overlapping one is flagged
        and zero-filled even if its CRC-8 happens to pass — a 16-bit burst
        escapes an 8-bit CRC with probability 2^-8, and there is no reason
        to take that bet when the damage location is known.
        """
        _check_encoded(encoded, strict)
        result = bitplane.group_decode_flagged(
            encoded.data,
            encoded.bits,
            encoded.values,
            self.group_size,
            self.signed,
            self.checksum,
            strict,
            tuple(suspect_bits),
        )
        _note_codec_call("decode", encoded.bits, encoded.values)
        return result
