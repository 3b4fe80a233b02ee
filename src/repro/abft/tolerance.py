"""Floating-point tolerances for checksum comparisons (paper Theorem 2).

Checksum equality tests like ``(cᵀA)x = cᵀ(Ax)`` never hold exactly in
floating point: associativity fails and each summation order accrues
its own rounding.  Theorem 2 of the paper bounds the gap under the
standard model of floating-point arithmetic (Higham, §2.2):

    |fl((cᵀA)x) − fl(cᵀ(Ax))| ≤ 2 γ₂ₙ |cᵀ| |A| |x|            (7)

with ``γ_m = m·u / (1 − m·u)`` and unit roundoff ``u``.  Because the
right-hand side is itself not computable exactly, the paper loosens it
with norms (Eq. 9):

    ... ≤ 2 γ₂ₙ n ‖c‖∞ ‖A‖₁ ‖x‖∞

which needs only ``‖A‖₁`` (computed once per matrix, accurate to
``n'·u`` with ``n'`` the max column count — small for sparse matrices)
and ``‖x‖∞`` per call.  Using this bound as the comparison tolerance
guarantees **no false positives**: a fault-free run can never trip the
detector.  False negatives (errors below the threshold) are possible
but, as the paper argues via Elliott et al., such perturbations are too
small to derail CG convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["gamma", "spmv_checksum_tolerance", "ToleranceModel"]

#: Unit roundoff of IEEE-754 binary64.
UNIT_ROUNDOFF: float = float(np.finfo(np.float64).eps) / 2.0

#: Smallest positive normal binary64, hoisted: ``np.finfo`` lookups are
#: surprisingly costly and :meth:`ToleranceModel.thresholds` sits on the
#: per-product verification path.
_TINY: float = float(np.finfo(np.float64).tiny)


def gamma(m: int, u: float = UNIT_ROUNDOFF) -> float:
    """Higham's ``γ_m = m·u / (1 − m·u)``; requires ``m·u < 1``."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    mu = m * u
    if mu >= 1.0:
        raise ValueError(f"gamma undefined: m*u = {mu} >= 1")
    return mu / (1.0 - mu)


def spmv_checksum_tolerance(
    n: int,
    c_inf: float,
    norm1_a: float,
    x_inf: float,
    u: float = UNIT_ROUNDOFF,
) -> float:
    """The Eq.-9 bound ``2 γ₂ₙ n ‖c‖∞ ‖A‖₁ ‖x‖∞``."""
    return 2.0 * gamma(2 * n, u) * n * c_inf * norm1_a * x_inf


@dataclass(frozen=True)
class ToleranceModel:
    """Matrix-dependent tolerance data, evaluated per call against ``‖x‖∞``.

    Attributes
    ----------
    n:
        Matrix dimension.
    norm1_a:
        ``‖A‖₁`` of the protected matrix.
    per_check_factor:
        For each checksum row ``l``, the product
        ``2 γ₂ₙ n ‖c⁽ˡ⁾‖∞ ‖A‖₁`` where ``c⁽ˡ⁾`` is the (shifted, for
        l = 0) checksum row.  Multiplying by ``‖x‖∞`` yields the final
        tolerance — so the per-call cost is one max-reduction over x.
    """

    n: int
    norm1_a: float
    per_check_factor: np.ndarray

    @classmethod
    def for_matrix(
        cls,
        n: int,
        norm1_a: float,
        weights_inf: np.ndarray,
        shifted_c_inf: float,
        u: float = UNIT_ROUNDOFF,
    ) -> "ToleranceModel":
        """Build the model from per-matrix quantities.

        ``weights_inf[l] = ‖w⁽ˡ⁾‖∞`` is used for the output-side
        checksum ``w⁽ˡ⁾ᵀy``; the first row additionally uses the shifted
        column checksum magnitude for the ``cᵀx'`` test.  We take the
        max of the two so one factor per row covers all tests that row
        participates in.
        """
        weights_inf = np.asarray(weights_inf, dtype=np.float64)
        base = 2.0 * gamma(2 * n, u) * n * norm1_a
        c_inf = weights_inf * max(1.0, norm1_a)
        c_inf[0] = max(c_inf[0], shifted_c_inf)
        return cls(n=n, norm1_a=norm1_a, per_check_factor=base / max(1.0, norm1_a) * c_inf)

    def thresholds(self, x_inf: float) -> np.ndarray:
        """Per-checksum-row comparison thresholds for input magnitude ``‖x‖∞``."""
        return np.array(self.threshold_list(x_inf), dtype=np.float64)

    def threshold_list(self, x_inf: float) -> "list[float]":
        """:meth:`thresholds` as Python floats, for the per-product
        verdict's scalar comparisons (the same products, bit for bit)."""
        scale = max(x_inf, _TINY)
        return [f * scale for f in self.per_check_factor.tolist()]
