"""Host-noise record: CPU steal from ``/proc/stat`` and the load average.

The end-to-end metrics run on the process CPU clock, which a noisy
neighbour moves far less than wall time.  These readings are kept beside
them as diagnostics, so an outlying run can be told apart from a real
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CpuTicks:
    """Aggregate ``cpu`` line of ``/proc/stat``, in clock ticks."""

    busy: int  # user + nice + system + irq + softirq
    idle: int  # idle + iowait
    steal: int

    @property
    def total(self) -> int:
        return self.busy + self.idle + self.steal


def parse_proc_stat(text: str) -> CpuTicks:
    """Parse the aggregate ``cpu`` line of ``/proc/stat``.

    Fields: user nice system idle iowait irq softirq steal guest
    guest_nice.  Guest time is already counted in user and nice, so it
    is left out of the total.
    """
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            vals = [int(v) for v in fields[1:]] + [0] * 8
            user, nice, system, idle, iowait, irq, softirq, steal = vals[:8]
            return CpuTicks(
                busy=user + nice + system + irq + softirq,
                idle=idle + iowait,
                steal=steal,
            )
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def steal_fraction(before: CpuTicks, after: CpuTicks) -> float:
    """Share of all CPU ticks between two readings that the host stole."""
    total = after.total - before.total
    return (after.steal - before.steal) / total if total > 0 else 0.0


def read_ticks() -> Optional[CpuTicks]:
    try:
        with open("/proc/stat") as fh:
            return parse_proc_stat(fh.read())
    except (OSError, ValueError):
        return None


def loadavg() -> Optional[float]:
    """One-minute load average, or None where the host does not expose it."""
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None
