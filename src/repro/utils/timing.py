"""Lightweight instrumentation: nestable timers and counters.

Every performance claim in this repository should be *measured*, not
asserted.  This module provides the minimal machinery to do that without
dragging in a profiler:

- :func:`timed` — a context manager (usable around any block) that
  accumulates wall time under a hierarchical name.  Nested ``timed``
  blocks record their full path (``"sim.collect_traces/data.synthesize"``),
  so a report distinguishes time spent synthesizing images *inside* trace
  collection from standalone synthesis.
- :func:`count` — bump a named counter (cache hits/misses, bytes, ...).
  This registry is the only counter store: the cache, codec and lowering
  stats are views over it (``cache.*``, ``codec.*``, ``arch.lowering.*``).
- :class:`StreamingHistogram` — a fixed-bin streaming distribution
  accumulator with deterministic percentile estimates.  Histograms with
  the same binning :meth:`~StreamingHistogram.merge`, so per-node
  accumulators (fleet shards' serve telemetry) reduce to one global
  distribution without shipping raw samples.
- :class:`FieldMerge` — the one merge rule of the telemetry records:
  field by field, numbers and arrays add, histograms merge, window
  fields must agree and max fields take the max.
- :func:`report` — a formatted table of all timers and counters.

Setting ``REPRO_PROFILE=1`` in the environment prints the report to
stderr when the process exits, so any experiment or test run can be
profiled without code changes.

The registry is process-global and thread-local in its nesting stack;
the accumulators themselves are guarded by a lock so worker threads can
share them.
"""

from __future__ import annotations

import atexit
import bisect
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

__all__ = [
    "timed",
    "count",
    "timer_stats",
    "counter_values",
    "reset",
    "report",
    "profiling_enabled",
    "StreamingHistogram",
    "FieldMerge",
    "fold_sum",
]


@dataclass
class TimerStat:
    """Accumulated wall time for one (possibly nested) timer path."""

    calls: int = 0
    total_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


@dataclass
class _Registry:
    timers: dict[str, TimerStat] = field(default_factory=dict, init=False)
    counters: dict[str, int] = field(default_factory=dict, init=False)
    lock: threading.Lock = field(default_factory=threading.Lock, init=False)


_REGISTRY = _Registry()
_STACK = threading.local()


def _path_stack() -> list[str]:
    stack = getattr(_STACK, "names", None)
    if stack is None:
        stack = _STACK.names = []
    return stack


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Accumulate the wall time of the enclosed block under ``name``.

    Nested blocks record their slash-joined path, e.g. entering
    ``timed("sim")`` then ``timed("traces")`` accumulates under
    ``"sim/traces"``.
    """
    stack = _path_stack()
    stack.append(name)
    path = "/".join(stack)
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        with _REGISTRY.lock:
            stat = _REGISTRY.timers.setdefault(path, TimerStat())
            stat.calls += 1
            stat.total_s += elapsed


def count(name: str, increment: int = 1) -> None:
    """Add ``increment`` to the named counter."""
    with _REGISTRY.lock:
        _REGISTRY.counters[name] = _REGISTRY.counters.get(name, 0) + increment


def timer_stats() -> dict[str, TimerStat]:
    """Snapshot of all timer paths (copies; safe to inspect)."""
    with _REGISTRY.lock:
        return {
            k: TimerStat(v.calls, v.total_s) for k, v in _REGISTRY.timers.items()
        }


def counter_values(prefix: str = "") -> dict[str, int]:
    """Snapshot of the counters whose name starts with ``prefix``."""
    with _REGISTRY.lock:
        return {k: v for k, v in _REGISTRY.counters.items() if k.startswith(prefix)}


def reset(prefix: str = "") -> None:
    """Clear the timers and counters whose name starts with ``prefix``
    (all of them by default; tests and repeated measurements)."""
    with _REGISTRY.lock:
        for table in (_REGISTRY.timers, _REGISTRY.counters):
            for name in [k for k in table if k.startswith(prefix)]:
                del table[name]


def report() -> str:
    """Human-readable table of accumulated timers and counters."""
    timers = timer_stats()
    counters = counter_values()
    title = "repro timing report"
    lines = [title, "=" * len(title)]
    if timers:
        width = max(len(p) for p in timers)
        lines.append(f"{'timer'.ljust(width)}  {'calls':>7}  {'total':>10}  {'mean':>10}")
        for path in sorted(timers, key=lambda p: -timers[p].total_s):
            stat = timers[path]
            lines.append(
                f"{path.ljust(width)}  {stat.calls:>7}  "
                f"{stat.total_s:>9.3f}s  {stat.mean_s * 1e3:>8.2f}ms"
            )
    else:
        lines.append("(no timers recorded)")
    if counters:
        lines.append("")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"{name.ljust(width)}  {counters[name]}")
    return "\n".join(lines)


class StreamingHistogram:
    """Fixed-bin streaming histogram with deterministic percentiles.

    Bins span ``[lo, hi]`` on a linear or logarithmic grid chosen at
    construction; samples outside the range clamp into the end bins (the
    exact ``min``/``max`` are tracked separately, and percentile results
    are clamped to them, so the tails never report values no sample had).
    Counts are plain Python ints, so :meth:`merge` is exact: two
    histograms of disjoint sample streams (two fleet nodes, say) merge to
    the same histogram as one that recorded both.

    Percentiles use the nearest-rank rule with linear interpolation
    inside the selected bin: deterministic, order-independent, and within
    one bin width of the exact sample percentile.
    """

    __slots__ = ("lo", "hi", "bins", "log", "_edges", "counts", "n", "total", "vmin", "vmax")

    def __init__(self, lo: float, hi: float, bins: int, log: bool = False):
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        if log and lo <= 0:
            raise ValueError(f"log-spaced bins need lo > 0, got {lo}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.log = bool(log)
        if log:
            ratio = math.log(self.hi / self.lo)
            self._edges = [
                self.lo * math.exp(ratio * i / bins) for i in range(bins + 1)
            ]
        else:
            step = (self.hi - self.lo) / bins
            self._edges = [self.lo + step * i for i in range(bins + 1)]
        self._edges[-1] = self.hi  # exactness at the top edge
        self.counts = [0] * bins
        self.n = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def record(self, value: float, weight: int = 1) -> None:
        """Add ``weight`` samples of ``value`` (out-of-range values clamp).

        ``±inf`` clamps into the end bins like any out-of-range value; NaN
        has no bin and raises.
        """
        v = float(value)
        if v != v:
            raise ValueError("cannot record NaN in a histogram")
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        if weight == 0:
            return
        idx = bisect.bisect_right(self._edges, v) - 1
        idx = min(max(idx, 0), self.bins - 1)
        self.counts[idx] += weight
        self.n += weight
        self.total += v * weight
        self.vmin = min(self.vmin, v)
        self.vmax = max(self.vmax, v)

    def record_values(self, values) -> None:
        """:meth:`record` each value in order (weight 1 each), in one pass.

        Exactly a ``record`` loop, bit for bit: ``searchsorted(...,
        side="right")`` is ``bisect_right``; ``argmin``/``argmax`` pick
        the first of equal extremes, as the ``min``/``max`` fold keeps
        the earlier of ``0.0`` and ``-0.0``; and ``total`` is the
        sequential :func:`fold_sum`, not numpy's pairwise sum.  A numpy
        array of any shape is taken in flattened order.
        """
        v = np.asarray(values, dtype=np.float64).ravel()
        if not v.size:
            return
        if np.isnan(v).any():
            raise ValueError("cannot record NaN in a histogram")
        idx = np.searchsorted(np.asarray(self._edges), v, side="right") - 1
        hits = np.bincount(np.clip(idx, 0, self.bins - 1), minlength=self.bins)
        for i in np.flatnonzero(hits).tolist():
            self.counts[i] += int(hits[i])
        self.n += v.size
        self.total = fold_sum(self.total, v)
        self.vmin = min(self.vmin, float(v[v.argmin()]))
        self.vmax = max(self.vmax, float(v[v.argmax()]))

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else math.nan

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold another histogram's samples into this one (in place).

        Requires identical binning — that is what makes the merge exact.
        Returns ``self`` so reductions can chain.
        """
        binning = (self.lo, self.hi, self.bins, self.log)
        if binning != (other.lo, other.hi, other.bins, other.log):
            raise ValueError(
                f"cannot merge histograms with different bins: "
                f"[{self.lo}, {self.hi}]x{self.bins}(log={self.log}) vs "
                f"[{other.lo}, {other.hi}]x{other.bins}(log={other.log})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.n += other.n
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self

    def percentile(self, q: float) -> float:
        """Estimated value at percentile ``q`` (0..100); NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.n == 0:
            return math.nan
        target = max(1, math.ceil(q / 100.0 * self.n))
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                frac = (target - cum) / c
                low, high = self._edges[i], self._edges[i + 1]
                value = low + (high - low) * frac
                return min(max(value, self.vmin), self.vmax)
            cum += c
        return self.vmax  # pragma: no cover - unreachable (counts sum to n)

    def summary(self) -> dict:
        """Deterministic scalar digest (JSON/golden friendly)."""
        empty = self.n == 0
        return {
            "count": self.n,
            "mean": self.mean,
            "min": math.nan if empty else self.vmin,
            "max": math.nan if empty else self.vmax,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


def fold_sum(start: float, values) -> float:
    """``start + v[0] + v[1] + ...`` added left to right, as a loop would.

    ``np.cumsum`` accumulates sequentially, so the result is bit-identical
    to ``total += v`` per value; ``np.sum`` adds pairwise and can differ
    from that loop in the last ulp.
    """
    acc = np.empty(len(values) + 1)
    acc[0] = start
    acc[1:] = values
    return float(np.cumsum(acc, out=acc)[-1])


class FieldMerge:
    """Exact, field-driven :meth:`merge` for dataclass telemetry records.

    Per field: the ``__merge_window__`` fields must be equal, histograms
    merge, the ``__merge_max__`` fields take the max, and everything else
    (ints, floats, numpy arrays) adds.  Callers merge in a fixed order
    (the fleet pins ascending node id), so float totals are reproducible.
    """

    __merge_window__: tuple[str, ...] = ()
    __merge_max__: tuple[str, ...] = ()

    def merge(self, other):
        """Fold ``other`` into this record (in place); returns ``self``."""
        cls = type(self)
        for name in cls.__merge_window__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(
                    f"cannot merge {cls.__name__} with different windows: "
                    f"{name} {mine!r} != {theirs!r}"
                )
        for f in fields(self):
            if f.name in cls.__merge_window__:
                continue
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, StreamingHistogram):
                mine.merge(theirs)
            elif f.name in cls.__merge_max__:
                setattr(self, f.name, max(mine, theirs))
            else:
                setattr(self, f.name, mine + theirs)
        return self


def profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE`` is set to a truthy value."""
    return os.environ.get("REPRO_PROFILE", "").strip().lower() in ("1", "true", "yes", "on")


def _report_at_exit() -> None:  # pragma: no cover - exit hook
    if profiling_enabled() and (timer_stats() or counter_values()):
        print("\n" + report(), file=sys.stderr)


atexit.register(_report_at_exit)
