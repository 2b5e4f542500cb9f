"""Persistent caching of seeded, deterministic artifacts.

Every artifact in this reproduction — synthetic images, calibrated
models, activation traces — is a pure function of its seed and
parameters, so it is computed **once per machine**, not once per
process.  See :mod:`repro.cache.store` for the design and
``DESIGN.md §5`` ("Caching & performance") for the operational knobs:

- ``REPRO_CACHE_DIR``   — cache location (default ``~/.cache/repro``),
- ``REPRO_NO_CACHE=1``  — bypass the store entirely,
- ``REPRO_PROFILE=1``   — print hit/miss/timing counters at exit.

Store events are ``cache.<namespace>.<event>`` counters in the
:mod:`repro.utils.timing` registry; :func:`cache_stats` sums them.
"""

from repro.cache.store import (
    CACHE_SCHEMA_VERSION,
    QUARANTINE_CAP,
    cache_enabled,
    cache_root,
    cache_stats,
    clear_memory_caches,
    fetch_or_compute,
    purge,
    register_memory_cache,
    reset_stats,
    stable_digest,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "QUARANTINE_CAP",
    "cache_enabled",
    "cache_root",
    "cache_stats",
    "clear_memory_caches",
    "fetch_or_compute",
    "purge",
    "register_memory_cache",
    "reset_stats",
    "stable_digest",
]
