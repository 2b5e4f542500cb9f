"""The per-layer memo: pure functions of a trace layer, computed once.

Every artifact the pipeline derives from a traced layer is a pure
function of that layer: the zero-padded imap and its Booth term maps
(:mod:`repro.arch.term_maps`), each cycle model's
:class:`~repro.arch.cycles.LayerCycles` record (:mod:`repro.arch.sim`),
the layer's imap/omap value range and its encoded bits under each
compression scheme (:mod:`repro.compression.footprint`).
:func:`repro.arch.sim.simulate_network` evaluates the same traces once
per (accelerator, scheme) pair, so each artifact would otherwise be
recomputed for every engine or every scheme.  All three read through
:func:`memoized` instead, and each distinct ``(layer, key)`` is computed
exactly once per trace lifetime.  A key that names a model or a scheme
carries :func:`instance_key` of it.

Memos are keyed by layer *identity* (``id``) and evicted by a weakref
finalizer when the layer is garbage collected, so memoization never
extends an array's lifetime and never leaks across unrelated layers that
happen to compare equal.  Returned arrays are marked read-only — callers
share them.  Every lookup counts ``arch.lowering.computed`` or
``arch.lowering.reused`` in the :mod:`repro.utils.timing` registry.
"""

from __future__ import annotations

import weakref
from typing import Callable, TypeVar

import numpy as np

from repro.cache import store as cache_store
from repro.utils import timing

__all__ = ["memoized", "instance_key", "clear_memos"]

T = TypeVar("T")

#: id(layer) -> {memo key: artifact}; entries die with their layer.
_MEMOS: dict[int, dict[tuple, object]] = {}


def _memo_for(layer: object) -> dict[tuple, object]:
    key = id(layer)
    memo = _MEMOS.get(key)
    if memo is None:
        memo = _MEMOS[key] = {}
        weakref.finalize(layer, _MEMOS.pop, key, None)
    return memo


def memoized(layer: object, key: tuple, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``(layer, key)``; later calls reuse it."""
    memo = _memo_for(layer)
    value = memo.get(key)
    if value is None:
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        memo[key] = value
        timing.count("arch.lowering.computed")
    else:
        timing.count("arch.lowering.reused")
    return value


def instance_key(obj: object) -> tuple:
    """The class and every instance field: all that sets what ``obj`` computes.

    The name alone is not enough: ``DeltaDynamic(16, axis="y")`` is also
    named ``DeltaD16``, and ``DiffyModel(axis="y")`` is also named ``Diffy``.
    """
    return (type(obj), *sorted(vars(obj).items()))


def clear_memos() -> None:
    """Drop every memoized artifact (the artifacts, not the traces)."""
    _MEMOS.clear()


cache_store.register_memory_cache(clear_memos)
