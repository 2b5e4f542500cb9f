"""End-to-end corruption metrics for fault campaigns.

All metrics compare a reconstructed feature map against its fault-free
reference.  The interesting one for Diffy is the *error run length*: the
number of consecutive corrupted values along a storage row.  Raw 16-bit
storage localizes a bit error to one value (run length 1); delta storage
accumulates it into every downstream value of the reconstruction chain,
so runs stretch to the end of the row — the reliability trade-off the
paper's DeltaD16 storage win never quantifies.

Metrics aggregate across maps and trials through :class:`ErrorAccumulator`
so a campaign row reports one coherent set of numbers per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CorruptionMetrics", "ErrorAccumulator", "corruption_metrics", "error_runs"]


def error_runs(reference: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Lengths of consecutive-error runs along the last (row) axis.

    Returns a flat int64 array with one entry per maximal run of corrupted
    values; rows are independent (a run never crosses a row boundary),
    matching the differential chains that confine error propagation.
    """
    ref = np.asarray(reference)
    obs = np.asarray(observed)
    if ref.shape != obs.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {obs.shape}")
    if ref.size == 0:
        return np.zeros(0, dtype=np.int64)
    width = ref.shape[-1]
    err = (ref != obs).reshape(-1, width)
    padded = np.zeros((err.shape[0], width + 2), dtype=np.int8)
    padded[:, 1:-1] = err
    edges = np.diff(padded, axis=1)
    starts = np.flatnonzero(edges.reshape(-1) == 1)
    ends = np.flatnonzero(edges.reshape(-1) == -1)
    return (ends - starts).astype(np.int64)


@dataclass(frozen=True)
class CorruptionMetrics:
    """Aggregated corruption measurements for one campaign grid point."""

    #: Total values compared (all maps and trials).
    values: int
    #: Values whose reconstructed result differs from the reference.
    corrupted_values: int
    #: Maximal consecutive-error runs along storage rows.
    error_runs: int
    #: Longest single error run observed.
    max_run_length: int
    #: Largest absolute value error.
    max_abs_error: int
    #: Mean absolute error over *all* values (not only corrupted ones).
    mean_abs_error: float
    #: PSNR of the reconstruction against the reference, in dB
    #: (infinite when nothing was corrupted).
    psnr_db: float

    __golden_properties__ = ("corrupted_fraction", "mean_run_length")

    @property
    def corrupted_fraction(self) -> float:
        return self.corrupted_values / self.values if self.values else 0.0

    @property
    def mean_run_length(self) -> float:
        return self.corrupted_values / self.error_runs if self.error_runs else 0.0


@dataclass
class ErrorAccumulator:
    """Streaming aggregation of corruption metrics over many map pairs."""

    values: int = field(default=0, init=False)
    corrupted: int = field(default=0, init=False)
    runs: int = field(default=0, init=False)
    max_run: int = field(default=0, init=False)
    max_abs: int = field(default=0, init=False)
    sum_abs: float = field(default=0.0, init=False)
    sum_sq: float = field(default=0.0, init=False)
    peak: int = field(default=0, init=False)

    def add(self, reference: np.ndarray, observed: np.ndarray) -> None:
        """Fold one (reference, observed) map pair into the aggregate."""
        ref = np.asarray(reference, dtype=np.int64)
        obs = np.asarray(observed, dtype=np.int64)
        if ref.shape != obs.shape:
            raise ValueError(f"shape mismatch: {ref.shape} vs {obs.shape}")
        err = obs - ref
        abs_err = np.abs(err)
        runs = error_runs(ref, obs)
        self.values += int(ref.size)
        self.corrupted += int((err != 0).sum())
        self.runs += int(runs.size)
        if runs.size:
            self.max_run = max(self.max_run, int(runs.max()))
        if ref.size:
            self.max_abs = max(self.max_abs, int(abs_err.max()))
            self.sum_abs += float(abs_err.sum())
            self.sum_sq += float((abs_err.astype(np.float64) ** 2).sum())
            self.peak = max(self.peak, int(ref.max() - ref.min()))

    def finish(self) -> CorruptionMetrics:
        """The aggregate as an immutable :class:`CorruptionMetrics`."""
        if self.values and self.sum_sq > 0.0 and self.peak > 0:
            mse = self.sum_sq / self.values
            psnr = 10.0 * math.log10(self.peak * self.peak / mse)
        else:
            psnr = math.inf
        return CorruptionMetrics(
            values=self.values,
            corrupted_values=self.corrupted,
            error_runs=self.runs,
            max_run_length=self.max_run,
            max_abs_error=self.max_abs,
            mean_abs_error=self.sum_abs / self.values if self.values else 0.0,
            psnr_db=psnr,
        )


def corruption_metrics(reference: np.ndarray, observed: np.ndarray) -> CorruptionMetrics:
    """Metrics for a single (reference, observed) map pair."""
    acc = ErrorAccumulator()
    acc.add(reference, observed)
    return acc.finish()
