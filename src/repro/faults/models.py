"""Deterministic fault models over bit streams.

Every model operates on a *bit array* — a flat ``uint8`` vector of 0/1
values, MSB-first, matching the order the codecs in
:mod:`repro.compression.bitplane` pack bits into bytes.  Fault *events*
are selected by an independent Bernoulli draw per bit at the configured
rate (the standard soft-error abstraction: a raw bit-error rate per
stored bit), and each model defines what one event does to the stream:

- :class:`BitFlip` — flips the event bit, plus ``count - 1`` additional
  independently-drawn bits per event (``count=1`` is the classic
  single-event upset; larger counts model multi-bit upsets from a single
  particle strike).
- :class:`StuckAt` — forces the event bit to a constant 0 or 1 (a hard
  fault; a no-op when the bit already holds that value, which is why
  stuck-at campaigns corrupt about half as many bits as flip campaigns at
  equal rates).
- :class:`Burst` — flips ``length`` consecutive bits starting at the
  event (an error burst on the interface, clipped at the stream end).

Everything is a pure function of the supplied :class:`numpy.random.Generator`,
so a campaign seeded through :func:`repro.utils.rng.rng_for` is bit-for-bit
reproducible — the property the ``ext_faults`` goldens pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bits import bits_to_words, words_to_bits
from repro.utils.validation import check_in, check_positive, check_unit_interval

__all__ = [
    "FaultModel",
    "BitFlip",
    "StuckAt",
    "Burst",
    "FAULT_MODELS",
    "fault_model",
    "select_events",
    "inject_bits",
    # Re-exported from repro.utils.bits so existing fault-campaign callers
    # keep importing them from here; the canonical home moved so the ECC
    # layer (repro.protect) can share them without importing this package.
    "words_to_bits",
    "bits_to_words",
]


def select_events(n_bits: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(rate) event positions over ``n_bits`` stream bits."""
    check_unit_interval("rate", rate)
    if n_bits == 0 or rate == 0.0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(rng.random(n_bits) < rate).astype(np.int64)


@dataclass(frozen=True)
class FaultModel:
    """Base class: subclasses mutate a bit array at given event positions."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    def mutate(
        self, bits: np.ndarray, events: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Apply this model's fault at each event position, in place."""
        raise NotImplementedError


@dataclass(frozen=True)
class BitFlip(FaultModel):
    """Flip the event bit plus ``count - 1`` extra random bits per event."""

    count: int = 1

    def __post_init__(self) -> None:
        check_positive("count", self.count)

    @property
    def name(self) -> str:
        return f"flip{self.count}"

    def mutate(self, bits, events, rng) -> None:
        bits[events] ^= 1
        if self.count > 1 and events.size:
            extra = rng.integers(0, bits.size, size=(events.size, self.count - 1))
            # Duplicate positions flip once (fancy assignment is unbuffered
            # for XOR only via ufunc.at) — use ufunc.at for true XOR semantics.
            np.bitwise_xor.at(bits, extra.reshape(-1), 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fault {self.name}>"


@dataclass(frozen=True)
class StuckAt(FaultModel):
    """Force the event bit to a constant value (stuck-at-0 / stuck-at-1)."""

    value: int = 0

    def __post_init__(self) -> None:
        check_in("value", self.value, (0, 1))

    @property
    def name(self) -> str:
        return f"stuck{self.value}"

    def mutate(self, bits, events, rng) -> None:
        bits[events] = self.value


@dataclass(frozen=True)
class Burst(FaultModel):
    """Flip ``length`` consecutive bits per event (clipped at stream end)."""

    length: int = 4

    def __post_init__(self) -> None:
        check_positive("length", self.length)

    @property
    def name(self) -> str:
        return f"burst{self.length}"

    def mutate(self, bits, events, rng) -> None:
        for offset in range(self.length):
            idx = events + offset
            idx = idx[idx < bits.size]
            bits[idx] ^= 1


def inject_bits(
    bits: np.ndarray, rate: float, model: FaultModel, rng: np.random.Generator
) -> int:
    """Inject ``model`` faults into ``bits`` in place; returns event count."""
    events = select_events(int(bits.size), rate, rng)
    if events.size:
        model.mutate(bits, events, rng)
    return int(events.size)


#: Named registry of the stock fault models.
FAULT_MODELS: "dict[str, FaultModel]" = {
    m.name: m
    for m in (
        BitFlip(1),
        BitFlip(2),
        StuckAt(0),
        StuckAt(1),
        Burst(4),
        Burst(8),
    )
}


def fault_model(name: str) -> FaultModel:
    """Look up a fault model by name (``flip1``, ``stuck0``, ``burst4``, ...)."""
    try:
        return FAULT_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault model {name!r}; available: {sorted(FAULT_MODELS)}"
        ) from None
