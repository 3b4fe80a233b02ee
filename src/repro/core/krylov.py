"""Plain BiCGstab, the unprotected baseline of the BiCGstab plugin.

Section 3 of the paper: "the techniques that we describe are applicable
to any iterative solver that use sparse matrix vector multiplies and
vector operations."  The fault-tolerant BiCGstab runs on the resilience
engine (``run_ft_method("bicgstab", ...)``); this textbook recurrence is
its fault-free oracle (``tests/test_core_ft_krylov.py``).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.core.cg import CGResult, cg_tolerance_threshold
from repro.util.validate import check_positive, check_vector

__all__ = ["bicgstab"]


def bicgstab(
    a: CSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eps: float = 1e-8,
    maxiter: int | None = None,
) -> CGResult:
    """BiCGstab (van der Vorst; Saad Alg. 7.7) for general square ``A``.

    Two SpMxVs per iteration, no transpose product — the natural first
    target for ABFT protection after CG.
    """
    check_positive("eps", eps)
    n = a.nrows
    b = check_vector("b", np.asarray(b, dtype=np.float64), n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    maxiter = 10 * n if maxiter is None else int(maxiter)
    r = b - a.matvec(x)
    threshold = cg_tolerance_threshold(a, b, r, eps)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    rnorm = float(np.linalg.norm(r))
    i = 0
    while rnorm > threshold and i < maxiter:
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0:
            break  # breakdown: restart would be needed
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        v = a.matvec(p)
        denom = float(r_hat @ v)
        if denom == 0.0:
            break
        alpha = rho_new / denom
        s = r - alpha * v
        snorm = float(np.linalg.norm(s))
        if snorm <= threshold:
            x += alpha * p
            r = s
            rnorm = snorm
            i += 1
            break
        t = a.matvec(s)
        tt = float(t @ t)
        if tt == 0.0:
            break
        omega = float(t @ s) / tt
        x += alpha * p + omega * s
        r = s - omega * t
        rho = rho_new
        rnorm = float(np.linalg.norm(r))
        i += 1
    return CGResult(
        x=x, iterations=i, converged=bool(rnorm <= threshold),
        residual_norm=rnorm, threshold=threshold,
    )
