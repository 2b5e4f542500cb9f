"""Work-reduction potential (Fig 4).

Fig 4 compares three idealized computation approaches, reporting speedups
normalized over the value-agnostic baseline:

- **ALL**: process every one of the 16 terms of every activation (Eq 2),
- **RawE**: process only the effectual (nonzero signed power-of-two) terms
  of the raw activations,
- **DeltaE**: process only the effectual terms of the activation deltas,
  with the first window of each row processed raw (Section II-C's scheme).

These are *potentials*: they assume perfect lane utilization and no
synchronization, which the cycle-accurate models in :mod:`repro.arch`
then erode (the paper: "benefits are proportional to but lower than the
potential").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.booth import WORD_BITS, booth_terms
from repro.core.deltas import spatial_deltas
from repro.nn.trace import ActivationTrace
from repro.utils.bits import quantize_to_width


@dataclass(frozen=True)
class PotentialSpeedups:
    """Fig 4 bars for one network."""

    network: str
    raw_effectual: float
    delta_effectual: float

    @property
    def delta_over_raw(self) -> float:
        """How much of DeltaE's edge comes purely from delta encoding."""
        return self.delta_effectual / self.raw_effectual


def potential_speedups(traces: Sequence[ActivationTrace], axis: str = "x") -> PotentialSpeedups:
    """Compute RawE and DeltaE potential speedups over ALL for one network.

    The speedup of a scheme is (total terms under ALL) / (total effectual
    terms under the scheme), with every term weighted by how many
    multiplications it participates in (all imap positions of a layer feed
    equally many windows up to boundary effects, so value counts are an
    accurate proxy — the same proxy the paper's Section II uses).
    """
    if not traces:
        raise ValueError("need at least one trace")
    total_values = 0
    terms_raw = 0
    terms_delta = 0
    for trace in traces:
        for layer in trace:
            imap = layer.imap
            total_values += imap.size
            terms_raw += int(booth_terms(imap).sum())
            deltas = quantize_to_width(spatial_deltas(imap, axis=axis), WORD_BITS)[0]
            terms_delta += int(booth_terms(deltas).sum())
    all_terms = total_values * WORD_BITS
    return PotentialSpeedups(
        network=traces[0].network,
        raw_effectual=all_terms / max(terms_raw, 1),
        delta_effectual=all_terms / max(terms_delta, 1),
    )
