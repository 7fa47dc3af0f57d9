"""Small argument-validation helpers with uniform error messages."""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["check_index", "check_int_array", "check_positive", "check_type"]

_INT64_MAX = np.iinfo(np.int64).max


def check_positive(name: str, value: int, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an int >= ``minimum`` and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_index(name: str, value: int, size: int) -> int:
    """Validate that ``value`` is a valid index into a container of ``size``."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not 0 <= value < size:
        raise IndexError(f"{name} must be in [0, {size}), got {value}")
    return value


def check_type(name: str, value: Any, expected: type) -> Any:
    """Validate that ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value


def check_int_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; ``ValueError`` unless every entry is
    an integer that fits int64 (floats, strings and booleans are not
    truncated or parsed).  An empty sequence is a valid empty array."""
    arr = np.asarray(values)
    if arr.size and (
        arr.dtype.kind not in "iu" or (arr.dtype.kind == "u" and arr.max() > _INT64_MAX)
    ):
        raise ValueError(f"{name} must be int64 integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)
