"""Temporal differential processing (the Section V extension).

The paper's related-work section contrasts Diffy (spatial deltas within a
frame) with CBInfer (temporal deltas across video frames) and notes "the
two concepts could potentially be combined".  This module implements that
combination for the trace-driven simulators:

- :func:`temporal_deltas` — per-layer activation deltas between two
  consecutive frames' traces,
- :class:`FrameSequenceTrace` — traces of a video clip plus helpers to
  iterate (previous, current) layer pairs,
- mode selection — per layer, choose raw / spatial-delta /
  temporal-delta processing, whichever carries the fewest effectual
  terms (the DR multiplexer of Section III-E makes per-layer mode
  switching free in hardware; a temporal mode additionally needs the
  previous frame's activations buffered, which is CBInfer's storage
  cost and is reported alongside).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.booth import WORD_BITS, booth_terms
from repro.core.deltas import spatial_deltas
from repro.nn.trace import ActivationTrace
from repro.utils.bits import quantize_to_width


def temporal_deltas(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Element-wise activation change between two frames' feature maps.

    Both maps must share shape and fixed-point scale (true for traces of
    the same quantized network).  The result saturates to the 16-bit
    storage word like the spatial-delta datapath does, through the
    audited narrowing point so any clip is counted.
    """
    cur = np.asarray(current, dtype=np.int64)
    prev = np.asarray(previous, dtype=np.int64)
    if cur.shape != prev.shape:
        raise ValueError(
            f"frame maps must share a shape, got {cur.shape} vs {prev.shape}"
        )
    return quantize_to_width(cur - prev, WORD_BITS)[0]


@dataclass(frozen=True)
class LayerModeStats:
    """Per-layer term counts of the three processing modes."""

    name: str
    index: int
    raw_terms: float
    spatial_terms: float
    temporal_terms: float

    @property
    def best_mode(self) -> str:
        """The cheapest mode for this layer."""
        best = min(
            ("raw", self.raw_terms),
            ("spatial", self.spatial_terms),
            ("temporal", self.temporal_terms),
            key=lambda kv: kv[1],
        )
        return best[0]

    @property
    def combined_terms(self) -> float:
        """Terms under per-layer best-mode selection."""
        return min(self.raw_terms, self.spatial_terms, self.temporal_terms)


@dataclass(frozen=True)
class FrameSequenceTrace:
    """Traces of consecutive frames of one clip through one network."""

    traces: tuple[ActivationTrace, ...]

    def __post_init__(self) -> None:
        if len(self.traces) < 2:
            raise ValueError("a frame sequence needs at least two traces")
        layer_counts = {len(t) for t in self.traces}
        if len(layer_counts) != 1:
            raise ValueError("frame traces have inconsistent layer counts")

    @property
    def frames(self) -> int:
        return len(self.traces)

    def layer_mode_stats(self, frame: int = 1) -> list[LayerModeStats]:
        """Mean effectual terms per value for each mode (spatial deltas
        along x), per layer.

        ``frame`` indexes the *current* frame (>= 1); the previous frame
        supplies the temporal reference.
        """
        if not 1 <= frame < self.frames:
            raise ValueError(f"frame must be in [1, {self.frames - 1}], got {frame}")
        cur, prev = self.traces[frame], self.traces[frame - 1]
        out = []
        for layer_cur, layer_prev in zip(cur, prev):
            imap = layer_cur.imap
            spatial = quantize_to_width(spatial_deltas(imap), WORD_BITS)[0]
            temporal = temporal_deltas(imap, layer_prev.imap)
            out.append(
                LayerModeStats(
                    name=layer_cur.name,
                    index=layer_cur.index,
                    raw_terms=float(booth_terms(imap).mean()),
                    spatial_terms=float(booth_terms(spatial).mean()),
                    temporal_terms=float(booth_terms(temporal).mean()),
                )
            )
        return out

    def frame_buffer_bytes(self) -> int:
        """Extra storage a temporal mode needs: one full set of imaps.

        This is CBInfer's cost the paper points out ("requires additional
        storage to store the previous frame values").
        """
        return sum(int(layer.imap.size) * 2 for layer in self.traces[0])
