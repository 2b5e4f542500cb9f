"""Canonical JSON serialization for experiment results.

Goldens must be byte-identical across runs, so serialization is strict:

- dataclasses become plain dicts of their fields, plus any derived
  metrics the class opts into via a ``__golden_properties__`` tuple,
- every float is rounded to a fixed number of significant digits
  (:data:`SIG_DIGITS`) so irrelevant last-bit noise never churns a file,
- NaN/infinity become the sentinel strings ``"NaN"`` / ``"Infinity"`` /
  ``"-Infinity"`` (canonical JSON forbids the bare tokens),
- numpy scalars and arrays reduce to Python numbers and nested lists,
- mapping keys are canonicalized to strings (ints, floats, and tuples
  included) and always emitted sorted,
- anything unrecognized raises :class:`UnserializableError` with the
  offending path rather than guessing.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping

import numpy as np

#: Significant digits kept for every float in canonical output.  Enough
#: to notice any real change in a reproduced metric; few enough that
#: bit-level jitter (e.g. a different summation order upstream) does not
#: rewrite goldens.
SIG_DIGITS = 9


class UnserializableError(TypeError):
    """A value in the result tree has no canonical JSON form."""


def round_float(value: float, sig: int = SIG_DIGITS):
    """Round to ``sig`` significant digits; map non-finite to sentinels."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == 0.0:
        return 0.0  # normalize -0.0 as well
    return float(f"{value:.{sig}g}")


def canonical_key(key: Any) -> str:
    """Deterministic string form for a mapping key."""
    if isinstance(key, str):
        return key
    if isinstance(key, bool):
        return "true" if key else "false"
    if isinstance(key, (int, np.integer)):
        return str(int(key))
    if isinstance(key, (float, np.floating)):
        return str(round_float(key))
    if isinstance(key, tuple):
        return ",".join(canonical_key(k) for k in key)
    raise UnserializableError(f"cannot canonicalize mapping key {key!r}")


def to_jsonable(obj: Any, sig: int = SIG_DIGITS, _path: str = "$") -> Any:
    """Reduce ``obj`` to canonical JSON-compatible Python structures."""
    if obj is None or isinstance(obj, (bool, str, np.bool_)):
        return bool(obj) if isinstance(obj, np.bool_) else obj
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_float(obj, sig)
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist(), sig, _path)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {
            f.name: to_jsonable(getattr(obj, f.name), sig, f"{_path}/{f.name}")
            for f in dataclasses.fields(obj)
        }
        for prop in getattr(type(obj), "__golden_properties__", ()):
            out[prop] = to_jsonable(getattr(obj, prop), sig, f"{_path}/{prop}")
        return out
    if isinstance(obj, Mapping):
        out = {}
        for key, value in obj.items():
            ckey = canonical_key(key)
            if ckey in out:
                raise UnserializableError(
                    f"mapping keys collide after canonicalization at {_path}: {ckey!r}"
                )
            out[ckey] = to_jsonable(value, sig, f"{_path}/{ckey}")
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v, sig, f"{_path}/{i}") for i, v in enumerate(obj)]
    if isinstance(obj, (set, frozenset)):
        items = [to_jsonable(v, sig, _path) for v in obj]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    raise UnserializableError(
        f"cannot serialize {type(obj).__name__} at {_path}: {obj!r}"
    )


def canonical_dumps(obj: Any, sig: int = SIG_DIGITS) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.

    Two calls with equal inputs produce byte-identical output — that is
    the contract goldens (and their diffs) rely on.
    """
    jsonable = to_jsonable(obj, sig)
    return (
        json.dumps(
            jsonable,
            sort_keys=True,
            indent=2,
            separators=(",", ": "),
            ensure_ascii=True,
            allow_nan=False,
        )
        + "\n"
    )
