"""The Conjugate Gradient method (paper Algorithm 1).

The unprotected baseline every fault-tolerant variant builds on.  The
stopping criterion follows Algorithm 1:

    while ‖r_i‖ > ε (‖A‖·‖r₀‖ + ‖b‖)

with ``‖A‖`` taken as the 1-norm (computable exactly for CSR).  A
``maxiter`` cap guards indefinite iteration on ill-conditioned systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.norms import norm1
from repro.util.validate import check_positive, check_vector

__all__ = ["CGResult", "cg", "cg_tolerance_threshold", "norm2", "tolerance_threshold"]


@dataclass(frozen=True)
class CGResult:
    """Outcome of a CG solve.

    Attributes
    ----------
    x:
        The computed solution.
    iterations:
        Iterations performed.
    converged:
        Whether the stopping criterion was met before ``maxiter``.
    residual_norm:
        Final ``‖r‖`` (the recurrence residual, not recomputed).
    threshold:
        The stopping threshold ``ε(‖A‖‖r₀‖ + ‖b‖)`` that was used.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    threshold: float


def norm2(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a float64 vector, bit for bit,
    without its dispatch: the same ``ravel(order="K")``, dot product and
    correctly rounded square root (``tests/test_core_cg.py`` pins it)."""
    x = v.ravel(order="K")
    return math.sqrt(float(x.dot(x)))


def tolerance_threshold(eps: float, norm1_a: float, r0_norm: float, b_norm: float) -> float:
    """Algorithm 1's stopping threshold ``ε (‖A‖·‖r₀‖ + ‖b‖)`` from its
    three norms — the one place the formula is spelled."""
    return eps * (norm1_a * r0_norm + b_norm)


def cg_tolerance_threshold(
    a: CSRMatrix,
    b: np.ndarray,
    r0: np.ndarray,
    eps: float,
    *,
    norm1_a: "float | None" = None,
) -> float:
    """Algorithm 1's stopping threshold ``ε (‖A‖·‖r₀‖ + ‖b‖)``.

    ``norm1_a`` lets a caller supply a cached ``‖A‖₁`` (the solve
    workspace computes it once per matrix) instead of the O(nnz)
    evaluation.
    """
    if norm1_a is None:
        norm1_a = norm1(a)
    return tolerance_threshold(
        eps, norm1_a, float(np.linalg.norm(r0)), float(np.linalg.norm(b))
    )


def cg(
    a: CSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-8,
    maxiter: int | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> CGResult:
    """Solve ``A x = b`` for SPD ``A`` by plain Conjugate Gradient.

    Parameters
    ----------
    a:
        SPD matrix in CSR form.
    b:
        Right-hand side.
    x0:
        Initial guess (zero vector when None).
    eps:
        The ε of Algorithm 1's stopping criterion.
    maxiter:
        Iteration cap; defaults to ``10 n``.
    callback:
        Called as ``callback(i, x_i, ‖r_i‖)`` after each iteration.
    """
    check_positive("eps", eps)
    n = a.nrows
    b = check_vector("b", np.asarray(b, dtype=np.float64), n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    maxiter = 10 * n if maxiter is None else int(maxiter)

    r = b - a.matvec(x)  # line 1
    p = r.copy()  # line 2
    rr = float(r @ r)
    threshold = cg_tolerance_threshold(a, b, r, eps)

    i = 0
    while np.sqrt(rr) > threshold and i < maxiter:  # line 4
        q = a.matvec(p)  # line 5
        pq = float(p @ q)
        if pq <= 0:
            # Not SPD (or fatally corrupted): bail out rather than divide
            # by a non-positive curvature.
            break
        alpha = rr / pq  # line 6
        x += alpha * p  # line 7
        r -= alpha * q  # line 8
        rr_new = float(r @ r)
        beta = rr_new / rr  # line 9
        p *= beta  # line 10 (in place: p = r + β p)
        p += r
        rr = rr_new
        i += 1
        if callback is not None:
            callback(i, x, float(np.sqrt(rr)))

    return CGResult(
        x=x,
        iterations=i,
        converged=bool(np.sqrt(rr) <= threshold),
        residual_norm=float(np.sqrt(rr)),
        threshold=threshold,
    )
