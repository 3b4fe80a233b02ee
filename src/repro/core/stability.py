"""Chen's stability verification for CG (ONLINE-DETECTION).

Section 3.1: Chen's tests check, at each verification point,

1. the **orthogonality** of the current search direction ``p_{i+1}``
   and the last ``q = A p_i``: in exact CG these are conjugate, so
   ``p_{i+1}ᵀq / (‖p_{i+1}‖‖q‖)`` must be (near) zero — a cheap test
   (two inner products);
2. the **recomputed residual**: ``b − A x_i`` must agree with the
   maintained recurrence residual ``r_i``.  This costs an extra SpMxV
   and dominates the verification time.

Both tolerances default to values that, like the ABFT Theorem-2 bound,
avoid false positives on fault-free runs (CG loses conjugacy gradually
through rounding, so the orthogonality threshold cannot be too tight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv_kernel

__all__ = ["VerificationReport", "orthogonality_check", "residual_check", "chen_verify"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one ONLINE-DETECTION verification."""

    passed: bool
    orthogonality: float  #: |pᵀq| / (‖p‖‖q‖), NaN if not evaluated
    residual_gap: float  #: ‖(b − A x) − r‖ / ‖b‖, NaN if not evaluated


def orthogonality_check(
    p_next: np.ndarray, q: np.ndarray, *, tol: float = 1e-8
) -> tuple[bool, float]:
    """Chen's conjugacy test: is ``p_{i+1}`` numerically orthogonal to ``q``?

    Returns ``(passed, score)`` with ``score = |pᵀq|/(‖p‖‖q‖)``.
    A zero vector (fault can zero out p) scores 0 but is treated as a
    failure because CG cannot continue with a null direction.
    """
    np_norm = math.sqrt(float(p_next @ p_next))
    nq_norm = math.sqrt(float(q @ q))
    if np_norm == 0.0 or nq_norm == 0.0 or not math.isfinite(np_norm * nq_norm):
        return False, float("inf")
    score = abs(float(p_next @ q)) / (np_norm * nq_norm)
    return bool(score <= tol), score


def residual_check(
    a: CSRMatrix,
    b: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    *,
    tol: float = 1e-8,
    matvec: "Callable | None" = None,
    scratch: "np.ndarray | None" = None,
) -> tuple[bool, float]:
    """Recompute ``b − A x`` and compare against the maintained ``r``.

    The gap is normalized by ``‖b‖`` (or 1 if ``b = 0``).  Costs one
    SpMxV — the dominant part of ONLINE-DETECTION's ``Tverif`` —
    issued on the run's kernel ``matvec``
    (:func:`repro.backends.kernel_matvec`) so the recomputed and
    maintained residuals come from the same summation order.
    ``scratch`` is the solver workspace's SpMxV products buffer (see
    :func:`repro.sparse.spmv.spmv`); the floats are the same without.
    The product is :func:`repro.sparse.spmv.spmv_kernel`: ``x`` must be
    a ``float64`` array of length ``a.ncols``, and the caller owns the
    floating-point error state (the resilience engine sets it once per
    solve).
    """
    drift = b - spmv_kernel(a, x, scratch=scratch, matvec=matvec)
    drift -= r
    scale = math.sqrt(float(b @ b)) or 1.0
    gap = math.sqrt(float(drift @ drift)) / scale
    if not math.isfinite(gap):
        return False, float("inf")
    return bool(gap <= tol), gap


def chen_verify(
    a: CSRMatrix,
    b: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    p_next: np.ndarray,
    q: np.ndarray,
    *,
    orth_tol: float = 1e-8,
    res_tol: float = 1e-8,
    check_orthogonality: bool = True,
    matvec: "Callable | None" = None,
    scratch: "np.ndarray | None" = None,
) -> VerificationReport:
    """Full ONLINE-DETECTION verification (both tests).

    The residual test is evaluated even when the orthogonality test
    already failed, so the report always carries both diagnostics.

    ``check_orthogonality=False`` skips the conjugacy test — used at
    (apparent) convergence, where ``p`` and ``q`` vanish and the
    conjugacy ratio degenerates to 0/0; the residual test alone decides
    there.
    """
    if check_orthogonality:
        orth_ok, orth_score = orthogonality_check(p_next, q, tol=orth_tol)
    else:
        orth_ok, orth_score = True, float("nan")
    res_ok, res_gap = residual_check(
        a, b, x, r, tol=res_tol, matvec=matvec, scratch=scratch
    )
    return VerificationReport(
        passed=orth_ok and res_ok,
        orthogonality=orth_score,
        residual_gap=res_gap,
    )
