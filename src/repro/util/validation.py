"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

from typing import Any

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in (0, 1) and return it.

    Used for the approximation parameter epsilon: the paper assumes
    0 < eps < 1 (larger values are clamped by callers, Section 2).
    """
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_vertex(name: str, vertex: Any, n: int) -> int:
    """Validate that ``vertex`` is an int in [0, n)."""
    v = int(vertex)
    if not 0 <= v < n:
        raise ValueError(f"{name} must be in [0, {n}), got {vertex!r}")
    return v


def check_int_array(name: str, values: Any) -> np.ndarray:
    """``values`` as an int64 array, rejecting non-integral entries.

    Integer dtypes pass through; a float entry must hold an integral
    value of int64 size (``2.0``), so ``1.5`` raises instead of being truncated by an
    ``int64`` cast.  An empty input gives an empty int64 array.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" or arr.size == 0:
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "f":
        exact = (arr == np.trunc(arr)) & (np.abs(arr) < 2.0**62)
        if bool(exact.all()):
            return arr.astype(np.int64)
    raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
