"""Content-addressed on-disk cache for seeded, deterministic artifacts.

Everything this reproduction computes is a pure function of a root seed
and a handful of structural parameters: dataset crops, calibrated
model weights, activation traces.  Recomputing them per process is the
dominant cost of every experiment (profiling a cold
``simulate_network("DnCNN", "Diffy")`` puts ~80% of the wall time in
image synthesis + trace convolutions), so this module persists them
under a *content-addressed* key: a BLAKE2b digest of the artifact's full
parameter tuple plus :data:`CACHE_SCHEMA_VERSION`.

Design points:

- **Location** — ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.
  The directory is created lazily on first store.
- **Kill switch** — ``REPRO_NO_CACHE=1`` bypasses the store entirely
  (every fetch recomputes and nothing is written); both variables are
  read per call, so tests can flip them via ``monkeypatch``.
- **Invalidation** — bump :data:`CACHE_SCHEMA_VERSION` whenever the
  *meaning* of any cached payload changes (synthesis algorithm, trace
  layout, calibration).  Old entries simply stop being addressed; a
  ``purge()`` helper deletes them.
- **Atomicity** — payloads are pickled to a temp file and ``os.replace``d
  into place, so concurrent processes never observe a torn entry.
- **Quarantine** — a corrupt or unreadable entry is treated as a miss,
  but instead of being silently overwritten it is moved to
  ``<root>/quarantine/<namespace>/<digest>.pkl`` for post-mortem (torn
  writes, disk corruption, schema bugs all leave evidence), and counted
  in :func:`cache_stats` as ``quarantined``.  The quarantine area is
  capped at the newest :data:`QUARANTINE_CAP` pickles; older evidence is
  evicted oldest-first and counted as ``quarantine_evicted``, so a
  recurring corruption source cannot grow the cache directory without
  bound.
- **Observability** — every store event is one ``cache.<namespace>.<event>``
  counter in :mod:`repro.utils.timing` (load/compute timings too);
  :func:`cache_stats` sums them per event, and ``REPRO_PROFILE=1``
  prints them at exit.

Payloads are arbitrary picklable objects; numpy arrays round-trip
bit-exactly through pickle, which is what makes cached traces
indistinguishable from recomputed ones (proven in ``tests/test_cache.py``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.utils import timing

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "QUARANTINE_CAP",
    "cache_enabled",
    "cache_root",
    "stable_digest",
    "fetch_or_compute",
    "cache_stats",
    "reset_stats",
    "purge",
    "register_memory_cache",
    "clear_memory_caches",
]

#: Bump when the content or layout of any cached artifact changes; every
#: key hashes this in, so stale entries are never read again.
CACHE_SCHEMA_VERSION = 3

#: Default cache location under the user's home (XDG-style).
_DEFAULT_ROOT = "~/.cache/repro"

#: Pickle protocol 4 keeps entries readable across the supported
#: interpreter range while still framing large numpy buffers efficiently.
_PICKLE_PROTOCOL = 4

#: Keep at most this many quarantined pickles (newest by mtime).
QUARANTINE_CAP = 32


@dataclass
class CacheStats:
    """Process-lifetime store counters, summed over namespaces."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    stores: int = field(default=0, init=False)
    bypasses: int = field(default=0, init=False)
    errors: int = field(default=0, init=False)
    quarantined: int = field(default=0, init=False)
    quarantine_evicted: int = field(default=0, init=False)


#: Counter event (the last ``cache.<namespace>.<event>`` component) ->
#: the :class:`CacheStats` field it adds to.
_EVENT_FIELD = {
    "hit": "hits",
    "miss": "misses",
    "store": "stores",
    "bypass": "bypasses",
    "error": "errors",
    "quarantined": "quarantined",
    "evicted": "quarantine_evicted",
}


#: In-process memo caches (``functools.lru_cache`` wrappers and friends)
#: registered by the modules that layer them over this store, so tests
#: and long-lived services can drop *all* memory caches in one call.
_MEMORY_CACHES: list[Callable[[], None]] = []


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a truthy value."""
    return os.environ.get("REPRO_NO_CACHE", "").strip().lower() not in (
        "1",
        "true",
        "yes",
        "on",
    )


def cache_root() -> Path:
    """Resolved cache directory (not necessarily existing yet)."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or _DEFAULT_ROOT).expanduser()


def stable_digest(*parts: object) -> str:
    """Stable hex digest of a key tuple (schema version included).

    Parts are serialized with ``repr``, which is stable across processes
    for the scalar/str/tuple keys used here (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    return h.hexdigest()


def _entry_path(namespace: str, digest: str) -> Path:
    return cache_root() / namespace / digest[:2] / f"{digest}.pkl"


def _quarantine_path(namespace: str, entry: Path) -> Path:
    return cache_root() / "quarantine" / namespace / entry.name


def _quarantine(namespace: str, entry: Path) -> None:
    """Move a corrupt entry aside (best-effort) instead of deleting it.

    Keeps the namespace and digest in the quarantined filename so the
    offending artifact can be identified and inspected later.  Any
    filesystem trouble degrades to leaving the entry in place — the next
    successful store overwrites it anyway.
    """
    target = _quarantine_path(namespace, entry)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(entry, target)
        timing.count(f"cache.{namespace}.quarantined")
    except OSError:
        timing.count(f"cache.{namespace}.error")
        return
    _prune_quarantine()


def _prune_quarantine() -> None:
    """Evict the oldest quarantined pickles beyond :data:`QUARANTINE_CAP`.

    The quarantine area is forensic evidence, not an archive: the newest
    failures are the ones worth a post-mortem, so eviction is
    oldest-mtime-first across all namespaces.  Races (another process
    evicting the same file) and filesystem errors are swallowed — the cap
    is best-effort, exactly like quarantining itself.
    """
    root = cache_root() / "quarantine"
    if not root.is_dir():
        return
    entries = []
    for path in root.rglob("*.pkl"):
        try:
            entries.append((path.stat().st_mtime, path))
        except OSError:
            continue
    excess = len(entries) - QUARANTINE_CAP
    if excess <= 0:
        return
    entries.sort()
    for _mtime, path in entries[:excess]:
        try:
            path.unlink()
        except OSError:
            continue
        timing.count("cache.quarantine.evicted")


def fetch_or_compute(
    namespace: str, key: tuple, compute: Callable[[], Any]
) -> Any:
    """Return the cached value for ``(namespace, key)``, computing on miss.

    ``key`` must be a tuple of stably-``repr``-able values fully
    determining the artifact.  With caching disabled the store is neither
    read nor written.
    """
    if not cache_enabled():
        timing.count(f"cache.{namespace}.bypass")
        with timing.timed(f"cache.{namespace}.compute"):
            return compute()

    path = _entry_path(namespace, stable_digest(namespace, *key))
    if path.is_file():
        try:
            with timing.timed(f"cache.{namespace}.load"):
                with open(path, "rb") as fh:
                    value = pickle.load(fh)
            timing.count(f"cache.{namespace}.hit")
            return value
        except Exception:
            # Torn/corrupt/incompatible entry: quarantine it for
            # post-mortem, then fall through and recompute.
            timing.count(f"cache.{namespace}.error")
            _quarantine(namespace, path)

    timing.count(f"cache.{namespace}.miss")
    with timing.timed(f"cache.{namespace}.compute"):
        value = compute()
    _store(namespace, path, value)
    return value


def _store(namespace: str, path: Path, value: Any) -> None:
    """Atomically persist ``value`` at ``path`` (best-effort)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=_PICKLE_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        timing.count(f"cache.{namespace}.store")
    except OSError:
        # A read-only or full filesystem must never break the computation.
        timing.count(f"cache.{namespace}.error")


def cache_stats() -> CacheStats:
    """Consistent snapshot of the store counters, summed over namespaces."""
    stats = CacheStats()
    for name, n in timing.counter_values("cache.").items():
        field_name = _EVENT_FIELD[name.rsplit(".", 1)[1]]
        setattr(stats, field_name, getattr(stats, field_name) + n)
    return stats


def reset_stats() -> None:
    """Zero the store counters and timers (tests, repeated measurements)."""
    timing.reset("cache.")


def purge() -> int:
    """Delete every entry under the current cache root; returns the count."""
    root = cache_root()
    removed = 0
    if not root.is_dir():
        return 0
    for path in root.rglob("*.pkl"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def register_memory_cache(clear: Callable[[], None]) -> None:
    """Register an in-process memo cache's clear function.

    Modules that put an ``lru_cache`` (or equivalent) in front of the
    disk store register its ``cache_clear`` here so
    :func:`clear_memory_caches` can drop every layer of memoization at
    once — the warm-vs-cold equivalence tests depend on this.
    """
    _MEMORY_CACHES.append(clear)


def clear_memory_caches() -> None:
    """Clear every registered in-process memo cache (disk is untouched)."""
    for clear in _MEMORY_CACHES:
        clear()
