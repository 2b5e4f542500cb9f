"""Small argument-validation helpers used across the package.

They raise ``ValueError`` with uniform, descriptive messages so that misuse
of the public API fails loudly and early.
"""

from __future__ import annotations

from typing import Collection, Optional

import numpy as np


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_integer(name: str, value: object) -> int:
    """Raise ``ValueError`` unless ``value`` is an integer; return it as ``int``.

    numpy integer scalars pass; bools and floats do not, integral or not
    (``16.0`` is a float that happens to be whole, not a count).
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_finite_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0 (NaN fails)."""
    if not 0 <= value < float("inf"):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check_unit_interval(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1`` (NaN fails)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_in(name: str, value: object, allowed: Collection) -> None:
    """Raise ``ValueError`` unless ``value`` is a member of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")


def check_axis(name: str, axis: str) -> None:
    """Validate a spatial-delta axis designator ('x' or 'y')."""
    check_in(name, axis, ("x", "y"))


#: Human-readable names for numpy dtype kind codes (error messages).
_KIND_NAMES = {
    "i": "signed integer",
    "u": "unsigned integer",
    "f": "float",
    "b": "bool",
    "c": "complex",
}


def check_dtype(name: str, array: np.ndarray, kinds: str = "iu") -> np.ndarray:
    """Raise ``ValueError`` unless ``array``'s dtype kind is in ``kinds``.

    ``kinds`` is a string of numpy dtype kind codes (``"iu"`` accepts any
    integer dtype).  Inputs that numpy cannot coerce to a uniform array at
    all (ragged lists, mixed types) also fail with ``ValueError``.
    """
    try:
        arr = np.asarray(array)
    except Exception as exc:
        raise ValueError(f"{name} is not array-like: {exc}") from None
    if arr.dtype.kind not in kinds:
        wanted = " or ".join(_KIND_NAMES.get(k, repr(k)) for k in kinds)
        got = _KIND_NAMES.get(arr.dtype.kind, arr.dtype.kind)
        raise ValueError(f"{name} must have {wanted} dtype, got {got} ({arr.dtype})")
    return arr


def check_integer_array(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as an integer array, at its own width.

    Feature maps and deltas are integers; a float map would be truncated
    by the integer kernels, so it fails here with ``ValueError`` instead.
    A bool array passes as its ``uint8`` view (0 and 1).
    """
    arr = check_dtype(name, values, kinds="iub")
    return arr.view(np.uint8) if arr.dtype.kind == "b" else arr


def check_shape(
    name: str,
    array: np.ndarray,
    ndim: Optional[int] = None,
    min_ndim: Optional[int] = None,
) -> np.ndarray:
    """Raise ``ValueError`` unless ``array``'s rank matches the constraint."""
    arr = np.asarray(array)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dims, got shape {arr.shape}")
    if min_ndim is not None and arr.ndim < min_ndim:
        raise ValueError(f"{name} must have >= {min_ndim} dims, got shape {arr.shape}")
    return arr


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` if ``array`` contains NaN or infinity.

    Integer arrays pass trivially; float arrays are scanned.
    """
    arr = np.asarray(array)
    if arr.dtype.kind == "f" and arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values (NaN or infinity)")
    return arr
