"""Protected storage containers for delta-compressed feature maps.

This module composes the three mechanisms of :mod:`repro.protect` into an
actual storage format and its recovery path:

- **Keyframe anchors** are split out of the delta stream entirely: every
  K-th chain position of the map is stored as a raw word in a separate
  anchor array (SECDED-protected when the policy says so), and the packed
  stream carries only the remaining deltas.  Keeping anchors out of the
  stream is what makes the error-run bound *structural* — a stream
  desynchronization can zero-fill arbitrarily many delta groups, but the
  anchors that restart each segment are stored independently and survive.
- **The delta stream** is a :class:`repro.compression.codec.GroupCodec`
  bitstream (per-group CRC-8 when ``group_checksum``), optionally chunked
  into 16-bit words and SECDED-encoded (``stream_ecc``).
- **Recovery** (:func:`read_protected`) walks the ladder: ECC corrects
  what it can, checksums zero-fill and flag what it couldn't, keyframes
  bound how far anything that survived can smear, and the returned
  :class:`RecoveryReport` says which values are *known suspect* — the
  complement of that mask is what a silent-corruption count must audit.

Maps are stored along the paper's X-axis chains at stride 1 (the storage
layout of omaps written back to the activation memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.compression.codec import CHECKSUM_BITS, Encoded, GroupCodec
from repro.compression.schemes import planar_order
from repro.core.booth import WORD_BITS
from repro.core.differential import (
    keyframe_anchor_mask,
    keyframe_deltas,
    reconstruct_from_keyframes,
)
from repro.core.precision import group_precisions
from repro.protect.ecc import (
    SecdedReport,
    codeword_bits,
    secded_decode,
    secded_encode,
)
from repro.protect.policy import ProtectionPolicy

__all__ = [
    "ProtectedMap",
    "RecoveryReport",
    "store_protected",
    "read_protected",
    "read_stream",
    "protected_bits",
    "encode_stream_chunks",
    "decode_stream_chunks",
]


def _clip_payload(data: bytes, bits: int) -> bytes:
    """The first ``bits`` bits of ``data`` as whole bytes, tail bits zeroed."""
    buf = bytearray(data[: -(-bits // 8)])
    if bits % 8 and len(buf) * 8 > bits:
        buf[-1] &= (0xFF << (8 - bits % 8)) & 0xFF
    return bytes(buf)


def encode_stream_chunks(encoded: Encoded) -> np.ndarray:
    """SECDED codewords of a packed stream cut into 16-bit chunks.

    The payload bits, zero-padded to a whole chunk, are read as big-endian
    16-bit words (MSB first, the packed stream's own bit order) and each
    word becomes one codeword.  :func:`decode_stream_chunks` inverts it.
    """
    payload = _clip_payload(encoded.data, encoded.bits)
    payload += bytes(len(payload) % 2)
    words = np.frombuffer(payload, dtype=">u2").astype(np.int64)
    return secded_encode(words, WORD_BITS)


def decode_stream_chunks(
    codes: np.ndarray, encoded: Encoded
) -> "tuple[Encoded, SecdedReport, tuple[tuple[int, int], ...]]":
    """Correct stream chunk codewords and rebuild the packed stream.

    ``encoded`` supplies the payload size and value count of the stream
    the codes were made from.  Returns ``(stream, report, suspect_bits)``:
    ``suspect_bits`` holds the payload bit range of every chunk ECC
    detected but could not correct (zero-filled), for the codec's
    ``decode_flagged`` to distrust whatever group touches it.
    """
    chunks, report = secded_decode(codes, WORD_BITS)
    data = _clip_payload(chunks.astype(">u2").tobytes(), encoded.bits)
    suspect = tuple(
        (int(i) * WORD_BITS, (int(i) + 1) * WORD_BITS)
        for i in np.flatnonzero(report.detected_mask)
    )
    return Encoded(data=data, bits=encoded.bits, values=encoded.values), report, suspect


def read_stream(
    codec,
    stream: Encoded,
    codes: Optional[np.ndarray] = None,
    hook: "Optional[Callable]" = None,
) -> "tuple[np.ndarray, tuple[int, ...], int, int]":
    """Read one stored packed stream back through ``codec``'s lenient decode.

    ``codec`` is any codec with ``decode_flagged`` (``GroupCodec`` for
    activation deltas, ``MSRCodec`` for weights).  ``codes`` are the
    stream's SECDED chunk codewords (:func:`encode_stream_chunks`) when it
    is stored under stream ECC, else ``None``.  ``hook`` receives the
    stored form — the codeword array, or the :class:`Encoded` container
    itself — and returns a possibly-corrupted copy: the fault-injection
    surface.

    Returns ``(values, flagged, corrected, detected)``: the decoded
    values, the groups the codec zero-filled and flagged, and the ECC
    chunk corrections and detections.
    """
    suspect_bits: "tuple[tuple[int, int], ...]" = ()
    corrected = detected = 0
    if codes is not None:
        if hook is not None:
            codes = np.asarray(hook(codes), dtype=np.int64)
        # The decoder must not trust any group touching a zero-filled
        # chunk, CRC pass or not — ECC already localized the damage.
        stream, rep, suspect_bits = decode_stream_chunks(codes, stream)
        corrected, detected = rep.corrected, rep.detected
    elif hook is not None:
        stream = hook(stream)
    values, flagged = codec.decode_flagged(
        stream, strict=False, suspect_bits=suspect_bits
    )
    return values, flagged, corrected, detected


def _anchor_mask_flat(shape: "tuple[int, ...]", interval: Optional[int]) -> np.ndarray:
    """Planar-order boolean mask of anchor positions for a (C, H, W) map."""
    if interval is None:
        return np.zeros(int(np.prod(shape)), dtype=bool)
    mask_w = keyframe_anchor_mask(shape[-1], interval)
    return np.broadcast_to(mask_w, shape).reshape(-1)


@dataclass(frozen=True, eq=False)
class ProtectedMap:
    """One feature map stored under a :class:`ProtectionPolicy`."""

    shape: "tuple[int, ...]"
    policy: ProtectionPolicy
    group_size: int
    #: Two's-complement interpretation of the anchor words.
    signed: bool
    #: Anchor words: SECDED codewords when ``policy.word_ecc``, else raw
    #: values.  Empty when the policy stores no keyframes.
    anchors: np.ndarray
    #: The packed delta stream (checksummed per the policy).
    stream: Encoded
    #: SECDED codewords of the stream's 16-bit chunks (``stream_ecc``).
    stream_codes: Optional[np.ndarray]

    @property
    def n_values(self) -> int:
        return int(np.prod(self.shape))

    @property
    def anchor_width(self) -> int:
        """Stored bits per anchor word (what an injector must corrupt)."""
        return codeword_bits(WORD_BITS) if self.policy.word_ecc else WORD_BITS

    @property
    def stored_bits(self) -> int:
        """Total stored bits, protection overhead included."""
        anchor_bits = int(self.anchors.size) * self.anchor_width
        if self.stream_codes is not None:
            return anchor_bits + int(self.stream_codes.size) * codeword_bits(WORD_BITS)
        return anchor_bits + self.stream.bits


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """What the recovery ladder did while reading one protected map."""

    #: Single-bit errors ECC corrected (anchor words + stream chunks).
    corrected: int
    #: ECC detections that could not be corrected (words zero-filled).
    detected: int
    #: Delta groups the checksum rejected (zero-filled and flagged).
    zeroed_groups: int
    #: Mask over the reconstructed map: True where the ladder *knows* the
    #: value may be wrong (flagged damage propagated to its segment end).
    #: Corruption outside this mask is silent.
    flagged_mask: np.ndarray


def store_protected(fmap: np.ndarray, policy: ProtectionPolicy) -> ProtectedMap:
    """Store a (C, H, W) integer map under ``policy``, in DeltaD16's
    16-value groups.

    With the null policy this produces exactly the DeltaD16 stream the
    unprotected campaign stores (same bytes); with ``keyframe_interval=1``
    the anchor array *is* the Raw16 word array and the stream is empty —
    the two endpoints the keyframe mechanism interpolates between.
    """
    arr = np.asarray(fmap, dtype=np.int64)
    if arr.ndim != 3:
        raise ValueError(f"expected (C, H, W) feature map, got shape {arr.shape}")
    signed = bool(arr.size and arr.min() < 0)
    interval = policy.keyframe_interval
    mask = _anchor_mask_flat(arr.shape, interval)
    flat = planar_order(keyframe_deltas(arr, interval))
    anchor_vals = flat[mask]
    codec = GroupCodec(16, signed=True, checksum=policy.group_checksum)
    stream = codec.encode(flat[~mask])
    anchors = (
        secded_encode(anchor_vals, WORD_BITS, signed=signed)
        if policy.word_ecc
        else anchor_vals.copy()
    )
    stream_codes = encode_stream_chunks(stream) if policy.stream_ecc else None
    return ProtectedMap(
        shape=tuple(arr.shape),
        policy=policy,
        group_size=16,
        signed=signed,
        anchors=anchors,
        stream=stream,
        stream_codes=stream_codes,
    )


def _propagate_to_segment_end(
    mask: np.ndarray, interval: Optional[int]
) -> np.ndarray:
    """Extend each flagged position to the end of its keyframe segment.

    A suspect delta or anchor taints everything it reconstructs into: all
    downstream values until the next anchor restarts the chain (the whole
    row when keyframes are off).
    """
    width = mask.shape[-1]
    anchors = np.flatnonzero(keyframe_anchor_mask(width, interval))
    bounds = list(anchors) + [width]
    out = mask.copy()
    for s, e in zip(bounds, bounds[1:]):
        out[..., s:e] = np.maximum.accumulate(out[..., s:e], axis=-1)
    return out


def read_protected(
    pmap: ProtectedMap,
    anchor_hook: "Optional[Callable[[np.ndarray], np.ndarray]]" = None,
    stream_hook: "Optional[Callable]" = None,
) -> "tuple[np.ndarray, RecoveryReport]":
    """Read a protected map back, running the full recovery ladder.

    ``anchor_hook`` receives the stored anchor word array (codewords when
    ``word_ecc``) and returns a possibly-corrupted copy — the fault
    injection surface for anchors.  ``stream_hook`` likewise receives the
    stream's stored form: the chunk codeword array under ``stream_ecc``,
    the :class:`Encoded` container otherwise.

    Returns ``(reconstructed map, report)``.
    """
    policy = pmap.policy
    interval = policy.keyframe_interval
    mask = _anchor_mask_flat(pmap.shape, interval)
    anchor_idx = np.flatnonzero(mask)
    value_idx = np.flatnonzero(~mask)
    corrected = 0
    detected = 0

    anchors = pmap.anchors
    if anchor_hook is not None:
        anchors = np.asarray(anchor_hook(anchors), dtype=np.int64)
    anchor_suspect = np.zeros(anchors.size, dtype=bool)
    if policy.word_ecc:
        anchor_vals, rep = secded_decode(anchors, WORD_BITS, signed=pmap.signed)
        corrected += rep.corrected
        detected += rep.detected
        anchor_suspect = rep.detected_mask
    else:
        anchor_vals = anchors

    codec = GroupCodec(pmap.group_size, signed=True, checksum=policy.group_checksum)
    values, flagged_groups, stream_corrected, stream_detected = read_stream(
        codec, pmap.stream, pmap.stream_codes, stream_hook
    )
    corrected += stream_corrected
    detected += stream_detected
    # Without group checksums a zero-filled chunk cannot be localized
    # to specific decoded groups — the whole stream is suspect.
    stream_blind_damage = stream_detected > 0 and not policy.group_checksum

    flat = np.zeros(pmap.n_values, dtype=np.int64)
    flat[value_idx] = values
    flat[anchor_idx] = anchor_vals
    observed = reconstruct_from_keyframes(flat.reshape(pmap.shape), interval)

    suspect = np.zeros(pmap.n_values, dtype=bool)
    for g in flagged_groups:
        lo = g * pmap.group_size
        hi = min((g + 1) * pmap.group_size, value_idx.size)
        suspect[value_idx[lo:hi]] = True
    suspect[anchor_idx[anchor_suspect]] = True
    if stream_blind_damage:
        suspect[value_idx] = True
    flagged_mask = _propagate_to_segment_end(
        suspect.reshape(pmap.shape), interval
    )
    report = RecoveryReport(
        corrected=corrected,
        detected=detected,
        zeroed_groups=len(flagged_groups),
        flagged_mask=flagged_mask,
    )
    return observed, report


def protected_bits(
    fmap: np.ndarray,
    policy: ProtectionPolicy,
    group_size: int = 16,
) -> int:
    """Stored bits for ``fmap`` under ``policy`` — accounting only.

    Matches :attr:`ProtectedMap.stored_bits` exactly (tied by test)
    without packing any bitstream, so footprint/traffic comparisons can
    price protected schemes at full-map scale cheaply.
    """
    arr = np.asarray(fmap, dtype=np.int64)
    if arr.ndim != 3:
        raise ValueError(f"expected (C, H, W) feature map, got shape {arr.shape}")
    interval = policy.keyframe_interval
    mask = _anchor_mask_flat(arr.shape, interval)
    flat = planar_order(keyframe_deltas(arr, interval))
    enc = group_precisions(flat[~mask], group_size, signed=True)
    stream_bits = enc.total_bits
    if policy.group_checksum:
        stream_bits += len(enc.precisions) * CHECKSUM_BITS
    if policy.stream_ecc:
        stream_stored = math.ceil(stream_bits / WORD_BITS) * codeword_bits(WORD_BITS)
    else:
        stream_stored = stream_bits
    anchor_width = codeword_bits(WORD_BITS) if policy.word_ecc else WORD_BITS
    return int(mask.sum()) * anchor_width + stream_stored
