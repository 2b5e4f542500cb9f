"""Off-chip memory technologies and the bandwidth/stall model.

Section IV-C studies technologies from "the now low-end LPDDR3-1600 up to
the high-end HBM2" (plus HBM3 in the Fig 18 scaling study).  The model is
bandwidth-oriented: Diffy's dataflow streams activations sequentially
(read-once / write-once per layer), so sustained sequential bandwidth —
derated for refresh/turnaround — is the right abstraction, and per-layer
execution time is ``max(compute_time, traffic / bandwidth)`` thanks to the
double-buffered AM (Section III-F).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.utils.validation import check_positive

#: Fraction of peak bandwidth sustainable on streaming access patterns.
DEFAULT_EFFICIENCY = 0.80


@dataclass(frozen=True)
class MemoryTechnology:
    """One off-chip memory node.

    ``peak_gbps_per_channel`` is the peak transfer bandwidth of a single
    channel in GB/s; ``energy_pj_per_bit`` the access energy used by the
    energy model (off-chip accesses are "two orders of magnitude more
    expensive than on-chip", Section IV-C).
    """

    name: str
    peak_gbps_per_channel: float
    energy_pj_per_bit: float = 20.0


#: Technology table.  Peak channel bandwidths are the standard per-package
#: figures (x32 LPDDR channels; HBM counted per stack).
MEMORY_TECHNOLOGIES: dict[str, MemoryTechnology] = {
    tech.name: tech
    for tech in (
        MemoryTechnology("LPDDR3-1600", 12.8, 22.0),
        MemoryTechnology("LPDDR3E-2133", 17.1, 22.0),
        MemoryTechnology("LPDDR4-3200", 25.6, 18.0),
        MemoryTechnology("LPDDR4X-3733", 29.9, 15.0),
        MemoryTechnology("LPDDR4X-4267", 34.1, 15.0),
        MemoryTechnology("DDR3-1600", 12.8, 25.0),
        MemoryTechnology("DDR4-3200", 25.6, 20.0),
        MemoryTechnology("HBM2", 256.0, 7.0),
        MemoryTechnology("HBM3", 410.0, 6.0),
    )
}

#: The six-node sweep of Fig 15, low-end to high-end.
FIG15_NODES = (
    "LPDDR3-1600",
    "LPDDR3E-2133",
    "LPDDR4-3200",
    "LPDDR4X-3733",
    "LPDDR4X-4267",
    "HBM2",
)


@dataclass(frozen=True)
class WeightStreamReport:
    """What the protection ladder saw on one weight-stream round trip."""

    #: SECDED single-bit corrections (silent to the codec).
    corrected_words: int
    #: SECDED double-bit detections, forwarded as ``suspect_bits``.
    detected_words: int
    #: Codec columns flagged by the lenient decode (zero-filled).
    flagged_columns: "tuple[int, ...]"


@dataclass(frozen=True)
class MemorySystem:
    """A memory technology plus channel count (Fig 18's ``v-r-x`` configs)."""

    technology: MemoryTechnology
    channels: int = 1
    efficiency: float = DEFAULT_EFFICIENCY
    #: Optional fault-injection hook applied by :meth:`read_words` — models
    #: bit errors in stored activation words (see :mod:`repro.faults`).
    #: ``None`` (the default) keeps the memory ideal, as everywhere else.
    fault_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None
    #: Store words as SECDED codewords (:mod:`repro.protect.ecc`): faults
    #: then hit the 22-bit codewords and :meth:`read_words` corrects or
    #: detects them on the way back.  Raises the stored footprint by
    #: ``codeword_bits(w)/w`` (22/16 for 16-bit words).
    ecc: bool = False

    def __post_init__(self) -> None:
        check_positive("channels", self.channels)
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    @property
    def name(self) -> str:
        suffix = f" x{self.channels}" if self.channels > 1 else ""
        return f"{self.technology.name}{suffix}"

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Sustained bandwidth in bytes/second."""
        return (
            self.technology.peak_gbps_per_channel
            * self.channels
            * self.efficiency
            * 1e9
        )

    def transfer_time_s(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` at sustained bandwidth."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        return num_bytes / self.bandwidth_bytes_per_s

    def transfer_energy_j(self, num_bytes: float) -> float:
        """Energy to move ``num_bytes`` across the interface."""
        return num_bytes * 8 * self.technology.energy_pj_per_bit * 1e-12

    def read_words(self, words: np.ndarray) -> np.ndarray:
        """Model reading stored activation words back from this memory.

        A fault-free system returns the words unchanged.  When a
        ``fault_hook`` is configured (the fault-injection campaign's
        "memory" site), the hook receives the word array and returns the
        possibly-corrupted copy; the input is never mutated.  With ``ecc``
        enabled the round trip goes through SECDED codewords — the hook
        corrupts the codewords and decode corrects/detects on the way
        back; see :meth:`read_words_ecc` for the report.
        """
        if self.ecc:
            return self.read_words_ecc(words)[0]
        arr = np.asarray(words)
        if self.fault_hook is None:
            return arr
        return self.fault_hook(arr)

    def read_words_ecc(
        self, words: np.ndarray, width: int = 16, signed: bool = False
    ) -> "tuple[np.ndarray, object]":
        """SECDED round trip: encode, apply the fault hook, decode.

        Returns ``(words, SecdedReport)``.  Single-bit flips per codeword
        come back corrected; double flips come back as zeros with the
        report's ``detected_mask`` set.  Usable regardless of the ``ecc``
        flag (protected fault campaigns call it directly).
        """
        from repro.protect.ecc import secded_decode, secded_encode

        arr = np.asarray(words)
        if arr.size and not signed:
            signed = bool(np.asarray(arr).min() < 0)
        codes = secded_encode(arr, width, signed=signed)
        if self.fault_hook is not None:
            codes = np.asarray(self.fault_hook(codes))
        return secded_decode(codes, width, signed=signed)

    def read_weight_stream(
        self, weights: np.ndarray, codec
    ) -> "tuple[np.ndarray, WeightStreamReport]":
        """Round-trip a quantized weight stream through this memory.

        Encodes ``weights`` with ``codec`` (an ``MSRCodec``-shaped object:
        ``encode`` / ``decode_flagged``), models storage faults on the
        packed stream, and decodes leniently — so the protection ladder
        composes on weight streams exactly as on activation streams:

        - With ``ecc`` the packed payload bits are padded to 16-bit words
          and stored as SECDED codewords; the ``fault_hook`` corrupts the
          codewords, single flips come back corrected, and double flips
          surface as ``suspect_bits`` ranges the codec's checksum layer
          (when enabled) turns into flagged columns.
        - Without ``ecc`` the ``fault_hook`` receives the stream's 0/1
          payload bit array directly and returns the corrupted copy.

        Returns ``(decoded_weights, WeightStreamReport)``.
        """
        from repro.compression.bitplane import pack_payload, unpack_payload

        encoded = codec.encode(weights)
        suspect: "tuple[tuple[int, int], ...]" = ()
        corrected = detected = 0
        if self.ecc:
            from repro.protect.stream import decode_stream_chunks, encode_stream_chunks

            codes = encode_stream_chunks(encoded)
            if self.fault_hook is not None:
                codes = np.asarray(self.fault_hook(codes))
            encoded, rep, suspect = decode_stream_chunks(codes, encoded)
            corrected = int(rep.corrected)
            detected = int(rep.detected)
        elif self.fault_hook is not None:
            bits = unpack_payload(encoded.data, encoded.bits)
            bits = np.asarray(self.fault_hook(bits)) & 1
            encoded = type(encoded)(
                data=pack_payload(bits.astype(np.uint8)),
                bits=encoded.bits,
                values=encoded.values,
            )
        values, flagged = codec.decode_flagged(
            encoded, strict=False, suspect_bits=suspect
        )
        return values, WeightStreamReport(
            corrected_words=corrected,
            detected_words=detected,
            flagged_columns=tuple(flagged),
        )

    def with_fault_hook(
        self, hook: Optional[Callable[[np.ndarray], np.ndarray]]
    ) -> "MemorySystem":
        """A copy of this system with ``fault_hook`` replaced."""
        return dataclasses.replace(self, fault_hook=hook)

    def with_ecc(self, ecc: bool = True) -> "MemorySystem":
        """A copy of this system with SECDED word protection toggled."""
        return dataclasses.replace(self, ecc=ecc)


#: An effectively infinite memory system (the "Ideal" bars of Fig 11).
IDEAL_MEMORY = MemorySystem(MemoryTechnology("Ideal", 1e9, 0.0), channels=1)


def memory_system(name: str, channels: int = 1) -> MemorySystem:
    """Build a :class:`MemorySystem` from a technology name."""
    if name == "Ideal":
        return IDEAL_MEMORY
    try:
        tech = MEMORY_TECHNOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown memory technology {name!r}; "
            f"available: {sorted(MEMORY_TECHNOLOGIES)} or 'Ideal'"
        ) from None
    return MemorySystem(tech, channels)
