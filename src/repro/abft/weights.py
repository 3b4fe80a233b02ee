"""Checksum weight vectors and the zero-column-sum shift.

The paper's Algorithm 2 uses the weight matrix

    Wᵀ = [ 1  1  …  1 ]
         [ 1  2  …  n ]

whose first row gives plain (Huang–Abraham style) checksums and whose
second row makes error *positions* recoverable: if a single error of
magnitude δ strikes position ``d`` of a protected quantity, the two
checksum residuals are ``(δ, δ·d)`` and their ratio localizes ``d``.

Section 3.2 of the paper analyzes the case of zero checksum entries:
the detection test for errors in ``x`` compares ``cᵀx'`` against the
(shift-augmented) output sum, where ``c`` holds the column sums of
``A``; if column ``j`` sums to zero an error in ``x_j`` is invisible.
Rather than requiring diagonal dominance (Shantharam et al.), the paper
shifts every checksum entry by a constant ``k`` chosen so that no entry
is zero, and adds the auxiliary output entry ``y_{n+1} = k Σ x̃_i``,
which restores detection for arbitrary matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ones_weights", "ramp_weights", "random_weights", "weight_matrix", "choose_shift"]


def ones_weights(n: int) -> np.ndarray:
    """The all-ones weight vector ``(1, …, 1)`` of length ``n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return np.ones(n, dtype=np.float64)


def ramp_weights(n: int) -> np.ndarray:
    """The position weight vector ``(1, 2, …, n)`` of length ``n``.

    One-based, as in the paper, so that the residual ratio directly
    equals the (one-based) error position.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return np.arange(1, n + 1, dtype=np.float64)


def random_weights(n: int, rng: "int | np.random.Generator | None" = None) -> np.ndarray:
    """A random weight vector, uniform on [0.5, 1.5).

    Section 3.2's alternative to the shift: a random ``w`` is
    non-orthogonal to every matrix column with probability one (the
    Lebesgue-measure argument), so zero checksums vanish without any
    shift.  The paper rejects it as the default because it adds
    multiplications to every checksum and enlarges the rounding error
    (``tests/test_abft_weights.py`` bounds both weightings' clean
    rounding by the Theorem-2 threshold).
    The support is bounded away from zero so no weight can accidentally
    blind the checksum to a row.
    """
    from repro.util.rng import as_generator

    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return as_generator(rng).uniform(0.5, 1.5, size=n)


def weight_matrix(n: int, nchecks: int) -> np.ndarray:
    """Stack of checksum weight rows, shape ``(nchecks, n)``.

    ``nchecks=1`` gives single-error detection; ``nchecks=2`` gives
    double detection / single correction (the paper notes k > 2 is
    impractical, so only 1 and 2 are supported).
    """
    if nchecks == 1:
        return ones_weights(n)[None, :]
    if nchecks == 2:
        return np.vstack([ones_weights(n), ramp_weights(n)])
    raise ValueError(f"nchecks must be 1 or 2, got {nchecks}")


def choose_shift(colsums: np.ndarray, *, margin: float = 1.0) -> float:
    """Pick ``k`` with ``colsums_j + k ≠ 0`` for every ``j`` (Theorem 1, item 1).

    Any value outside ``{-colsums_j}`` works; for numerical robustness
    we want ``|colsums_j + k|`` comfortably above rounding noise, so we
    return a ``k`` whose distance to every ``-colsums_j`` is at least
    ``margin`` (scaled by the magnitude of the column sums).

    The choice is deterministic: scan ``k ∈ {s, 2s, 3s, …}`` with
    ``s = margin · max(1, max_j |colsums_j|)`` until the separation
    holds.  Because there are only ``n`` forbidden points, at most
    ``n + 1`` candidates are examined.
    """
    colsums = np.asarray(colsums, dtype=np.float64)
    if colsums.size == 0:
        return margin
    scale = max(1.0, float(np.abs(colsums).max()))
    step = margin * scale
    forbidden = -colsums
    k = step
    # Each iteration rules out at least one forbidden point, so the loop
    # terminates after at most n+1 candidates.
    for _ in range(colsums.size + 1):
        if np.all(np.abs(forbidden - k) >= step * 0.5):
            return float(k)
        k += step
    # Unreachable in exact arithmetic; fall back to a huge separation.
    return float(np.abs(forbidden).max() + step)  # pragma: no cover
