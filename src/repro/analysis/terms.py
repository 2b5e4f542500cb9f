"""Effectual-term distributions (Fig 3).

Fig 3 plots the cumulative distribution of effectual terms per raw
activation and per delta, over all CI-DNNs and datasets, and reports the
average sparsity of both streams (43% raw / 48% delta in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.booth import WORD_BITS, booth_terms
from repro.core.deltas import spatial_deltas
from repro.nn.trace import ActivationTrace
from repro.utils.bits import quantize_to_width

#: Largest histogram bin.  Radix-4 Booth needs at most 8 terms per 16-bit
#: word, so the last bin stays empty; it keeps the Fig 3 histograms' length.
MAX_TERMS = (WORD_BITS + 2) // 2


def term_histogram(values: np.ndarray) -> np.ndarray:
    """Counts of values having 0..MAX_TERMS effectual terms."""
    terms = booth_terms(values)
    return np.bincount(terms.reshape(-1), minlength=MAX_TERMS + 1)


def term_cdf(histogram: np.ndarray) -> np.ndarray:
    """Cumulative fraction of values with <= n terms, n = 0..MAX_TERMS."""
    total = histogram.sum()
    if total == 0:
        raise ValueError("empty histogram")
    return np.cumsum(histogram) / total


@dataclass(frozen=True)
class TermStats:
    """Aggregated term statistics over a set of traces.

    ``hist_raw`` / ``hist_delta`` count activations by effectual-term
    count; sparsity is the fraction of exact zeros in each stream.
    """

    hist_raw: np.ndarray
    hist_delta: np.ndarray

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = (
        "cdf_raw",
        "cdf_delta",
        "sparsity_raw",
        "sparsity_delta",
        "mean_terms_raw",
        "mean_terms_delta",
    )

    @property
    def cdf_raw(self) -> np.ndarray:
        return term_cdf(self.hist_raw)

    @property
    def cdf_delta(self) -> np.ndarray:
        return term_cdf(self.hist_delta)

    @property
    def sparsity_raw(self) -> float:
        return float(self.hist_raw[0] / self.hist_raw.sum())

    @property
    def sparsity_delta(self) -> float:
        return float(self.hist_delta[0] / self.hist_delta.sum())

    @property
    def mean_terms_raw(self) -> float:
        n = np.arange(len(self.hist_raw))
        return float((self.hist_raw * n).sum() / self.hist_raw.sum())

    @property
    def mean_terms_delta(self) -> float:
        n = np.arange(len(self.hist_delta))
        return float((self.hist_delta * n).sum() / self.hist_delta.sum())


def trace_term_stats(traces: Sequence[ActivationTrace]) -> TermStats:
    """Accumulate Fig 3's histograms over every imap of every trace.

    The delta stream follows the paper's dataflow (chains along x): the
    first value of each chain stays raw (it is what the hardware actually processes).
    Deltas saturate to the 16-bit word through
    :func:`repro.utils.bits.quantize_to_width`, so every clip is counted.
    """
    if not traces:
        raise ValueError("need at least one trace")
    hist_raw = np.zeros(MAX_TERMS + 1, dtype=np.int64)
    hist_delta = np.zeros(MAX_TERMS + 1, dtype=np.int64)
    for trace in traces:
        for layer in trace:
            hist_raw += term_histogram(layer.imap)
            deltas = quantize_to_width(spatial_deltas(layer.imap), WORD_BITS)[0]
            hist_delta += term_histogram(deltas)
    return TermStats(hist_raw=hist_raw, hist_delta=hist_delta)
