"""Information-theoretic study of the activation stream (Fig 1).

The paper's first evidence for differential processing is that the
conditional entropy H(A|A') of an activation given its left neighbour —
and the entropy H(Delta) of the activation deltas — are substantially
lower than the raw entropy H(A).  These are plain Shannon entropies over
the empirical distribution of 16-bit fixed-point values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.deltas import spatial_deltas
from repro.nn.trace import ActivationTrace


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def entropy(values: np.ndarray) -> float:
    """Shannon entropy (bits/value) of the empirical value distribution."""
    arr = np.asarray(values, dtype=np.int64).reshape(-1)
    if arr.size == 0:
        raise ValueError("entropy of an empty array is undefined")
    _, counts = np.unique(arr, return_counts=True)
    return _entropy_from_counts(counts)


def joint_entropy_pairs(a: np.ndarray, b: np.ndarray) -> float:
    """Shannon entropy of the joint distribution of aligned pairs (a, b)."""
    av = np.asarray(a, dtype=np.int64).reshape(-1)
    bv = np.asarray(b, dtype=np.int64).reshape(-1)
    if av.shape != bv.shape:
        raise ValueError(f"pair arrays must align, got {av.shape} vs {bv.shape}")
    if av.size == 0:
        raise ValueError("joint entropy of empty arrays is undefined")
    # Pack both 16-bit values into one 32-bit key for a single unique pass.
    keys = (av.astype(np.int64) << 17) ^ (bv.astype(np.int64) & 0x1FFFF)
    _, counts = np.unique(keys, return_counts=True)
    return _entropy_from_counts(counts)


def conditional_entropy_adjacent(fmap: np.ndarray, axis: str = "x") -> float:
    """H(A | A') for adjacent-along-axis activation pairs of a feature map.

    Uses H(A|A') = H(A, A') - H(A') over all (value, left-neighbour) pairs.
    """
    arr = np.asarray(fmap, dtype=np.int64)
    if arr.ndim < 2:
        raise ValueError(f"fmap must have >= 2 dims, got shape {arr.shape}")
    if axis == "x":
        cur, prev = arr[..., 1:], arr[..., :-1]
    elif axis == "y":
        cur, prev = arr[..., 1:, :], arr[..., :-1, :]
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return joint_entropy_pairs(cur, prev) - entropy(prev)


def delta_entropy(fmap: np.ndarray, axis: str = "x") -> float:
    """H(Delta): entropy of the spatial deltas of a feature map.

    Only the genuinely differential positions enter the distribution (the
    raw heads of each chain are excluded), matching what delta encoding
    actually stores.
    """
    deltas = spatial_deltas(fmap, axis=axis)
    if axis == "x":
        body = deltas[..., 1:]
    else:
        body = deltas[..., 1:, :]
    return entropy(body)


@dataclass(frozen=True)
class EntropyStats:
    """Fig 1 quantities for one network (averaged over layers and inputs).

    ``compression_conditional`` and ``compression_delta`` are the paper's
    "potential to compress the encoded information": H(A)/H(A|A') and
    H(A)/H(Delta).
    """

    network: str
    h_raw: float
    h_conditional: float
    h_delta: float

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("compression_conditional", "compression_delta")

    @property
    def compression_conditional(self) -> float:
        return self.h_raw / self.h_conditional if self.h_conditional > 0 else float("inf")

    @property
    def compression_delta(self) -> float:
        return self.h_raw / self.h_delta if self.h_delta > 0 else float("inf")


def trace_entropy_stats(traces: Sequence[ActivationTrace]) -> EntropyStats:
    """Average H(A), H(A|A'), H(Delta) across all imaps of the traces,
    with neighbours along x.

    Layer entropies are weighted by value count, i.e. the statistics
    describe the network's whole activation stream, as in Fig 1.
    """
    if not traces:
        raise ValueError("need at least one trace")
    h_raw = h_cond = h_del = 0.0
    weight = 0
    for trace in traces:
        for layer in trace:
            n = layer.imap.size
            h_raw += entropy(layer.imap) * n
            h_cond += conditional_entropy_adjacent(layer.imap) * n
            h_del += delta_entropy(layer.imap) * n
            weight += n
    return EntropyStats(
        network=traces[0].network,
        h_raw=h_raw / weight,
        h_conditional=h_cond / weight,
        h_delta=h_del / weight,
    )
