"""Site-level fault injection: words, packed streams, delta maps.

The campaigns corrupt stored activations through these injectors:

- :func:`inject_words` — ``width``-bit two's-complement storage words:
  raw activation words, keyframe anchors, or SECDED codewords.
- :func:`inject_encoded` — the packed dynamic-precision bitstream of a
  :class:`repro.compression.codec.Encoded` container, before decode.  Only
  payload bits are exposed to faults (byte-padding bits are not stored).
- :func:`inject_deltas` — a decoded delta map, before differential
  reconstruction (:func:`repro.core.deltas.reconstruct_from_deltas`).
- :func:`corrupt_protected_read` — the one injector into a stored map
  (:class:`repro.protect.stream.ProtectedMap`): it corrupts every stored
  surface at its stored width and reads the map back through
  :func:`repro.protect.stream.read_protected`.  Raw16 storage is the
  ``keyframe_interval=1`` map, so raw words go through here too.

The first three return ``(corrupted copy, fault event count)`` and never
mutate their input.
"""

from __future__ import annotations

import numpy as np

from repro.compression.bitplane import pack_payload, unpack_payload
from repro.compression.codec import Encoded
from repro.core.booth import WORD_BITS
from repro.faults.models import (
    FaultModel,
    bits_to_words,
    inject_bits,
    words_to_bits,
)
from repro.protect.ecc import codeword_bits
from repro.protect.stream import ProtectedMap, RecoveryReport, read_protected

__all__ = ["inject_words", "inject_encoded", "inject_deltas", "corrupt_protected_read"]


def _to_unsigned(arr: np.ndarray, width: int) -> np.ndarray:
    """Two's-complement view of signed words (identity for non-negative)."""
    lo, hi = -(1 << (width - 1)), (1 << width) - 1
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"values do not fit {width}-bit storage words")
    return arr & ((1 << width) - 1)


def _from_unsigned(arr: np.ndarray, width: int) -> np.ndarray:
    sign_bit = np.int64(1) << (width - 1)
    return np.where(arr & sign_bit, arr - (np.int64(1) << width), arr)


def inject_words(
    words: np.ndarray,
    rate: float,
    model: FaultModel,
    rng: np.random.Generator,
    width: int = WORD_BITS,
    signed: bool = False,
) -> "tuple[np.ndarray, int]":
    """Corrupt ``width``-bit storage words at a per-bit fault ``rate``.

    ``signed`` selects a two's-complement interpretation (delta words);
    unsigned words must be non-negative.  Shape and dtype (int64) of the
    returned array match the input.
    """
    arr = np.asarray(words, dtype=np.int64)
    raw = _to_unsigned(arr.reshape(-1), width)
    if not signed and arr.size and arr.min() < 0:
        raise ValueError("unsigned word injection requires non-negative values")
    bits = words_to_bits(raw, width)
    faults = inject_bits(bits, rate, model, rng)
    out = bits_to_words(bits, width)
    if signed:
        out = _from_unsigned(out, width)
    return out.reshape(arr.shape), faults


def inject_encoded(
    encoded: Encoded,
    rate: float,
    model: FaultModel,
    rng: np.random.Generator,
) -> "tuple[Encoded, int]":
    """Corrupt the payload bits of a packed stream before decode.

    Only the ``encoded.bits`` payload bits are exposed — the zero padding
    the encoder adds to reach a whole byte never leaves it, so it cannot
    fault.
    """
    # Unpack the *physical* bits (payload + byte padding) so the repack
    # preserves any padding content byte-for-byte.
    bits = unpack_payload(encoded.data, len(encoded.data) * 8)
    payload = bits[: encoded.bits]
    faults = inject_bits(payload, rate, model, rng)
    bits[: encoded.bits] = payload
    return (
        Encoded(data=pack_payload(bits), bits=encoded.bits, values=encoded.values),
        faults,
    )


def inject_deltas(
    deltas: np.ndarray,
    rate: float,
    model: FaultModel,
    rng: np.random.Generator,
    width: int = WORD_BITS,
) -> "tuple[np.ndarray, int]":
    """Corrupt a decoded delta map (signed words) before reconstruction."""
    return inject_words(deltas, rate, model, rng, width=width, signed=True)


def corrupt_protected_read(
    pmap: ProtectedMap,
    rate: float,
    model: FaultModel,
    rng: np.random.Generator,
) -> "tuple[np.ndarray, RecoveryReport, int]":
    """Inject faults into one stored map and run the recovery ladder.

    Returns ``(observed, report, faults)``.  The injection surface is the
    map's actual stored form — anchor words at their stored width, the
    packed stream (or its SECDED codewords under ``stream_ecc``) — the
    same surfaces :mod:`repro.faults.campaign` attacks.
    """
    counter = {"faults": 0}

    def anchor_hook(anchors: np.ndarray) -> np.ndarray:
        corrupted, n = inject_words(
            anchors,
            rate,
            model,
            rng,
            width=pmap.anchor_width,
            signed=pmap.signed and not pmap.policy.word_ecc,
        )
        counter["faults"] += n
        return corrupted

    if pmap.policy.stream_ecc:

        def stream_hook(codes):
            corrupted, n = inject_words(
                codes, rate, model, rng, width=codeword_bits(WORD_BITS)
            )
            counter["faults"] += n
            return corrupted

    else:

        def stream_hook(encoded):
            corrupted, n = inject_encoded(encoded, rate, model, rng)
            counter["faults"] += n
            return corrupted

    observed, report = read_protected(
        pmap, anchor_hook=anchor_hook, stream_hook=stream_hook
    )
    return observed, report, counter["faults"]
