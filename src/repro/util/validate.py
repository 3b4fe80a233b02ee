"""Parameter-validation helpers shared across the library.

These raise early with actionable messages instead of letting NumPy
broadcast errors surface deep inside a solver loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_fault_point",
    "check_square",
    "check_vector",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_fault_point(alpha: "float | None" = None, **intervals: float) -> None:
    """Refuse a fault rate ``alpha`` that is negative or not finite, and
    any named interval that is not a whole number >= 1 (a whole
    ``float`` such as ``4.0`` passes)."""
    if alpha is not None and not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    for name, value in intervals.items():
        if not (1 <= value < math.inf and value == int(value)):
            raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")


def check_square(name: str, shape: tuple[int, ...]) -> int:
    """Require a square 2-D shape; return the dimension."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square, got shape {shape}")
    return shape[0]


def check_vector(name: str, x: np.ndarray, n: int | None = None) -> np.ndarray:
    """Require a 1-D float array, optionally of length ``n``."""
    import numpy as np

    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got ndim={arr.ndim}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    return arr
