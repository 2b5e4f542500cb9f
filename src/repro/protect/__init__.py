"""Error protection and recovery for stored activation maps.

Diffy's storage win (DeltaD16) turns single stored-bit errors into
unbounded error *runs*: a corrupted delta is accumulated into every
downstream value of its reconstruction chain (measured by
:mod:`repro.faults`).  This package models the mitigation side:

- :mod:`repro.protect.ecc` — SECDED extended-Hamming codewords on raw
  storage words (correct 1 flip, detect 2);
- checksummed streams — per-group CRC-8 in
  :class:`repro.compression.codec.GroupCodec` (detect, zero-fill, flag);
- keyframe anchoring (:func:`repro.core.differential.keyframe_deltas`) —
  every K-th chain position stored raw, bounding error runs to K;
- :mod:`repro.protect.policy` — named compositions of the above;
- :mod:`repro.protect.stream` — the protected storage container and the
  graceful-degradation read path tying them together: the one store and
  recover path for stored maps.  Raw16 storage is the
  ``keyframe_interval=1`` container.  Its stream half,
  :func:`~repro.protect.stream.read_stream` (16-bit chunk SECDED, then
  the codec's lenient flagged decode), also reads MSR weight streams.

Stored maps are corrupted only by
:func:`repro.faults.inject.corrupt_protected_read`, which reads them back
through :func:`~repro.protect.stream.read_protected`.
"""

from repro.protect.ecc import (
    SecdedReport,
    codeword_bits,
    parity_bits,
    secded_decode,
    secded_encode,
)
from repro.protect.policy import (
    DEFAULT_KEYFRAME_INTERVAL,
    PROTECTION_POLICIES,
    ProtectionPolicy,
    protection_policy,
)
from repro.protect.stream import (
    ProtectedMap,
    RecoveryReport,
    decode_stream_chunks,
    encode_stream_chunks,
    protected_bits,
    read_protected,
    read_stream,
    store_protected,
)

__all__ = [
    "SecdedReport",
    "codeword_bits",
    "parity_bits",
    "secded_decode",
    "secded_encode",
    "DEFAULT_KEYFRAME_INTERVAL",
    "PROTECTION_POLICIES",
    "ProtectionPolicy",
    "protection_policy",
    "ProtectedMap",
    "RecoveryReport",
    "decode_stream_chunks",
    "encode_stream_chunks",
    "protected_bits",
    "read_protected",
    "read_stream",
    "store_protected",
]
