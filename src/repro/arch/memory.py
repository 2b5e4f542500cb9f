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

from dataclasses import dataclass

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
class MemorySystem:
    """A memory technology plus channel count (Fig 18's ``v-r-x`` configs)."""

    technology: MemoryTechnology
    channels: int = 1
    efficiency: float = DEFAULT_EFFICIENCY

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
