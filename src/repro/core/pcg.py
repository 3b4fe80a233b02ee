"""Preconditioned Conjugate Gradient (the paper's Section-6 extension).

The paper singles out diagonal (Jacobi), approximate-inverse and
triangular preconditioners as attractive because the preconditioner
application is itself an SpMxV (or triangular solve) that the same ABFT
machinery can protect.  We provide Jacobi and SSOR preconditioners; the
Jacobi one is applied as a (diagonal) SpMxV and can therefore be
wrapped with :func:`repro.abft.spmv.protected_spmv` — see
``tests/test_core_pcg.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.core.cg import CGResult, cg_tolerance_threshold
from repro.util.validate import check_positive, check_vector

__all__ = ["pcg", "jacobi_preconditioner", "ssor_preconditioner"]

#: A preconditioner is a callable applying M⁻¹ to a vector.
Preconditioner = Callable[[np.ndarray], np.ndarray]


def jacobi_inverse_diagonal(a: CSRMatrix) -> np.ndarray:
    """``diag(A)⁻¹`` as a raw vector; raises if the diagonal has zeros
    (the matrix would not be SPD anyway).

    The single source of the Jacobi setup: the closure form below, the
    FT-PCG plugin and the solve workspace's per-matrix cache all call
    this, so the check and the arithmetic cannot drift apart.
    """
    diag = a.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Jacobi preconditioner requires a zero-free diagonal")
    return 1.0 / diag


def jacobi_preconditioner(a: CSRMatrix) -> Preconditioner:
    """Diagonal (Jacobi) preconditioner ``M = diag(A)``.

    Returns a callable computing ``M⁻¹ z``; raises if the diagonal has
    zeros.
    """
    inv = jacobi_inverse_diagonal(a)
    return lambda z: inv * z


def ssor_preconditioner(a: CSRMatrix, omega: float = 1.0) -> Preconditioner:
    """SSOR preconditioner built from the triangular splitting of ``A``.

    ``M = (D/ω + L) · (ω/(2−ω)) D⁻¹ · (D/ω + U)`` with ``A = L + D + U``.
    Applied via two sparse triangular solves (scipy), matching the
    triangular-preconditioner case Shantharam et al. address.
    """
    if not 0 < omega < 2:
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve_triangular

    s = a.to_scipy().tocsr()
    d = sp.diags(s.diagonal())
    lower = sp.tril(s, k=-1).tocsr()
    upper = sp.triu(s, k=1).tocsr()
    dw = d / omega
    lower_factor = (dw + lower).tocsr()
    upper_factor = (dw + upper).tocsr()
    scale = (2.0 - omega) / omega
    dvec = s.diagonal()

    def apply(z: np.ndarray) -> np.ndarray:
        t = spsolve_triangular(lower_factor, z, lower=True)
        t = scale * dvec * t
        return spsolve_triangular(upper_factor, t, lower=False)

    return apply


def pcg(
    a: CSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    preconditioner: Preconditioner | None = None,
    eps: float = 1e-8,
    maxiter: int | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Preconditioned CG for SPD ``A`` (Saad, Alg. 9.1).

    Parameters
    ----------
    preconditioner:
        Callable applying ``M⁻¹``; identity when None (plain CG).
    matvec:
        Override for the ``A·p`` product — pass an ABFT-protected
        closure to run the protected variant.
    Other parameters as :func:`repro.core.cg.cg`.
    """
    check_positive("eps", eps)
    n = a.nrows
    b = check_vector("b", np.asarray(b, dtype=np.float64), n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    maxiter = 10 * n if maxiter is None else int(maxiter)
    apply_m = preconditioner if preconditioner is not None else (lambda z: z)
    apply_a = matvec if matvec is not None else a.matvec

    r = b - apply_a(x)
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    threshold = cg_tolerance_threshold(a, b, r, eps)

    i = 0
    rnorm = float(np.linalg.norm(r))
    while rnorm > threshold and i < maxiter:
        q = apply_a(p)
        pq = float(p @ q)
        if pq <= 0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
        rnorm = float(np.linalg.norm(r))
        i += 1
        if callback is not None:
            callback(i, x, rnorm)

    return CGResult(
        x=x,
        iterations=i,
        converged=bool(rnorm <= threshold),
        residual_norm=rnorm,
        threshold=threshold,
    )
