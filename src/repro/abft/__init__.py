"""Algorithm-based fault tolerance for the sparse matrix-vector product.

Implements the paper's Algorithm 2 and its supporting machinery:

- :mod:`repro.abft.weights` — weight matrices ``W`` and the shift
  constant ``k`` that removes the zero-column-sum degeneracy;
- :mod:`repro.abft.checksums` — per-matrix checksum precomputation
  (``COMPUTECHECKSUMS`` of Algorithm 2);
- :mod:`repro.abft.spmv` — the protected SpMxV with single-error
  detection (Theorem 1) or double-detection/single-correction;
- :mod:`repro.abft.correction` — the ``CORRECTERRORS`` decoder for
  errors in ``Rowidx``, ``Val``, ``Colid``, ``x`` and the computation;
- :mod:`repro.abft.tolerance` — the Theorem-2 floating-point tolerance
  that guarantees no false positives.

The vector kernels the paper protects by replication rather than
checksums are voted by the resilience engine (``EngineContext.tmr_vote``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.abft.weights import ones_weights, ramp_weights, weight_matrix, choose_shift
    from repro.abft.checksums import (
        SpmvChecksums,
        compute_checksums,
        cached_checksums,
        clear_checksum_cache,
    )
    from repro.abft.spmv import (
        ProtectedSpmvResult,
        SpmvStatus,
        protected_spmv,
    )
    from repro.abft.correction import CorrectionOutcome, correct_errors
    from repro.abft.tolerance import gamma, spmv_checksum_tolerance, ToleranceModel

__all__ = [
    "ones_weights",
    "ramp_weights",
    "weight_matrix",
    "choose_shift",
    "SpmvChecksums",
    "compute_checksums",
    "cached_checksums",
    "clear_checksum_cache",
    "ProtectedSpmvResult",
    "SpmvStatus",
    "protected_spmv",
    "CorrectionOutcome",
    "correct_errors",
    "gamma",
    "spmv_checksum_tolerance",
    "ToleranceModel",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.abft.weights": (
            "ones_weights",
            "ramp_weights",
            "weight_matrix",
            "choose_shift",
        ),
        "repro.abft.checksums": (
            "SpmvChecksums",
            "compute_checksums",
            "cached_checksums",
            "clear_checksum_cache",
        ),
        "repro.abft.spmv": (
            "ProtectedSpmvResult",
            "SpmvStatus",
            "protected_spmv",
        ),
        "repro.abft.correction": ("CorrectionOutcome", "correct_errors"),
        "repro.abft.tolerance": (
            "gamma",
            "spmv_checksum_tolerance",
            "ToleranceModel",
        ),
    },
)
