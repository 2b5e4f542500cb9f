"""The trace memo: pure functions of a trace layer or trace set, computed once.

Every artifact the pipeline derives from a traced layer is a pure
function of that layer: its Booth term maps
(:mod:`repro.arch.term_maps`), each cycle model's
:class:`~repro.arch.cycles.LayerCycles` record (:mod:`repro.arch.sim`)
and the layer's imap/omap value range (:mod:`repro.compression.footprint`).
A map's encoded bits under each scheme are a pure function of the map
alone, so they are keyed by the map array itself: where one layer's omap
is the next layer's imap, that array is encoded once per scheme.
:func:`repro.arch.sim.simulate_network` evaluates the same traces once
per (accelerator, scheme) pair, so each artifact would otherwise be
recomputed for every engine or every scheme.  All of them read through
:func:`memoized` instead, and each distinct ``(owner, key)`` is computed
exactly once per owner lifetime.  A key that names a model or a scheme
carries :func:`instance_key` of it.

Whole-network records that are pure functions of a *trace set* (the
engine's cycle records averaged over the traces, the profiled
precisions, the network's traffic under a scheme) read through
:func:`memoized_set`: one entry names every trace of the set, so two
sets that share a first trace but differ in the tail never meet, and it
is evicted as soon as any of its traces is garbage collected.  Only
small records and ints are memoized per set.

Memos are keyed by owner *identity* (``id``) and evicted by a weakref
finalizer when an owner is garbage collected, so memoization never
extends an object's lifetime and never leaks across unrelated objects
that happen to compare equal.  Returned arrays are marked read-only —
callers share them.  Every lookup counts ``arch.lowering.computed`` or
``arch.lowering.reused`` in the :mod:`repro.utils.timing` registry.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from repro.cache import store as cache_store
from repro.utils import timing

__all__ = ["memoized", "memoized_set", "instance_key", "clear_memos"]

T = TypeVar("T")

#: One object's owner key is its ``id``; a trace set's is the tuple of the
#: ``id`` of every trace in it.
_OwnerKey = Union[int, tuple[int, ...]]

#: Owner key -> {memo key: artifact}; entries die with any of their owners.
_MEMOS: dict[_OwnerKey, dict[tuple, object]] = {}


def _memoized(
    owner_key: _OwnerKey, owners: Sequence[object], key: tuple, compute: Callable[[], T]
) -> T:
    memo = _MEMOS.get(owner_key)
    if memo is None:
        memo = _MEMOS[owner_key] = {}
        for owner in owners:
            weakref.finalize(owner, _MEMOS.pop, owner_key, None)
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


def memoized(owner: object, key: tuple, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``(owner, key)``; later calls reuse it."""
    return _memoized(id(owner), (owner,), key, compute)


def memoized_set(owners: Sequence[object], key: tuple, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``(owners, key)``, for a value that reads every
    owner in ``owners`` (in order); it dies with the first of them to go."""
    return _memoized(tuple(map(id, owners)), owners, key, compute)


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
