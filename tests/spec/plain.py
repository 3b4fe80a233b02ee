"""Textbook fault-free BiCGstab and Jacobi-PCG from ``x = 0``: the
minimal references the engine's BiCGstab and PCG plugins are checked
against at ``alpha=0`` (Saad, Alg. 7.7 and 9.1).  Plain CG is
:class:`tests.spec.protected_cg.ProtectedCG` with an empty schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse import CSRMatrix, norm1, spmv


@dataclass(frozen=True)
class PlainResult:
    x: np.ndarray
    iterations: int
    converged: bool
    threshold: float


def threshold(a: CSRMatrix, b: np.ndarray, r0: np.ndarray, eps: float) -> float:
    """Algorithm 1's stopping threshold ``ε (‖A‖₁·‖r₀‖ + ‖b‖)``."""
    return eps * (norm1(a) * float(np.linalg.norm(r0)) + float(np.linalg.norm(b)))


def bicgstab(a: CSRMatrix, b: np.ndarray, *, eps: float) -> PlainResult:
    x = np.zeros(a.nrows)
    r = b - spmv(a, x)
    thr = threshold(a, b, r, eps)
    r_hat, v, p = r.copy(), np.zeros_like(r), np.zeros_like(r)
    rho = alpha = omega = 1.0
    rnorm, i = float(np.linalg.norm(r)), 0
    while rnorm > thr and i < 10 * a.nrows:
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0:
            break
        p = r + (rho_new / rho) * (alpha / omega) * (p - omega * v)
        v = spmv(a, p)
        alpha = rho_new / float(r_hat @ v)
        s = r - alpha * v
        i += 1
        if float(np.linalg.norm(s)) <= thr:
            x += alpha * p
            r = s
            break
        t = spmv(a, s)
        omega = float(t @ s) / float(t @ t)
        x += alpha * p + omega * s
        r = s - omega * t
        rho, rnorm = rho_new, float(np.linalg.norm(r))
    rnorm = float(np.linalg.norm(r))
    return PlainResult(x, i, rnorm <= thr, thr)


def jacobi_pcg(a: CSRMatrix, b: np.ndarray, *, eps: float) -> PlainResult:
    minv = 1.0 / a.diagonal()
    x = np.zeros(a.nrows)
    r = b - spmv(a, x)
    thr = threshold(a, b, r, eps)
    z = minv * r
    p, rz, i = z.copy(), float(r @ z), 0
    while float(np.linalg.norm(r)) > thr and i < 10 * a.nrows:
        q = spmv(a, p)
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz, i = rz_new, i + 1
    return PlainResult(x, i, float(np.linalg.norm(r)) <= thr, thr)
