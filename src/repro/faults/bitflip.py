"""IEEE-754 / integer bit-flip primitives.

A silent data corruption flips one bit of a stored word.  For float64
that can change the sign, exponent or mantissa (flips in low mantissa
bits produce tiny perturbations — the false-negative regime Theorem 2's
tolerance deliberately ignores); for int64 index arrays a flip can send
a column index or row pointer far out of range.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flip_bit_float64", "flip_bit_int64", "flip_bits_array"]


def flip_bit_float64(value: float, bit: int) -> float:
    """Flip bit ``bit`` (0 = LSB of the mantissa, 63 = sign) of a float64."""
    if not 0 <= bit <= 63:
        raise ValueError(f"bit must be in [0, 63], got {bit}")
    as_int = np.float64(value).view(np.uint64)
    flipped = as_int ^ np.uint64(1 << bit)
    return float(flipped.view(np.float64))


def flip_bit_int64(value: int, bit: int) -> int:
    """Flip bit ``bit`` of an int64 (two's complement, 63 = sign)."""
    if not 0 <= bit <= 63:
        raise ValueError(f"bit must be in [0, 63], got {bit}")
    as_u = np.int64(value).view(np.uint64)
    flipped = as_u ^ np.uint64(1 << bit)
    return int(flipped.view(np.int64))


def flip_bits_array(
    arr: np.ndarray,
    positions: np.ndarray,
    bits: np.ndarray,
) -> None:
    """Flip ``bits[i]`` of ``arr[positions[i]]`` in place, for each ``i``.

    ``arr`` must be float64 or int64; the flip happens on the raw
    64-bit pattern either way.
    """
    positions = np.asarray(positions, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.uint64)
    if positions.shape != bits.shape:
        raise ValueError("positions and bits must have the same shape")
    if arr.dtype == np.float64:
        view = arr.view(np.uint64)
    elif arr.dtype == np.int64:
        view = arr.view(np.uint64)
    else:
        raise TypeError(f"unsupported dtype for bit flips: {arr.dtype}")
    view[positions] ^= np.uint64(1) << bits
