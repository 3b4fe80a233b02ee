"""ABFT-protected sparse matrix–vector product (paper Algorithm 2).

The protected product computes ``y = A x`` through the unreliable
kernel and then evaluates three groups of checksum residuals (all the
checksum arithmetic itself is reliable — selective reliability):

``dr``  (Theorem 1, tests iii/iv)
    ``cr − Wᵀ·Rowidx[1..n]`` where ``cr`` was precomputed from the
    clean matrix.  Row pointers are integers, so this test is exact:
    any absolute residual ≥ 0.5 is a real corruption of ``Rowidx``.

``dx``  (Algorithm 2 line 21, Theorem 1 test i)
    ``Wᵀy − (WᵀA)ᵀ·x̃`` evaluated against the *current* (possibly
    corrupted) ``x̃``.  Because ``y`` was computed from the same ``x̃``,
    errors in ``x`` cancel here — a nonzero ``dx`` isolates errors in
    the matrix arrays or in the computation of ``y``.  With the ramp
    weight row, ``dx₂/dx₁`` localizes the faulty output row.

``dxp`` (Algorithm 2 line 22, Theorem 1 test ii)
    The input-vector test against the reliable copy ``x'``.  Two forms
    are implemented, matching the paper's two schemes:

    * *detection mode* (1 checksum row): the Theorem-1 shifted test
      ``(c + k)ᵀx' − (Σᵢyᵢ + k Σᵢx̃ᵢ)`` with ``c`` the column sums of
      ``A``.  The shift ``k`` is what makes an error in ``x_j`` visible
      even when column ``j`` of ``A`` sums to zero (Section 3.2's
      geometric argument; e.g. graph Laplacians).
    * *correction mode* (2 checksum rows): the line-22 form
      ``Wᵀ(x' − y) − (W − C)ᵀx̃``, which reduces to ``Wᵀ(x' − x̃)``
      when only ``x`` is corrupted — so ``dxp₂/dxp₁`` localizes the
      faulty entry of ``x`` directly (the ``W`` rows have no zero
      entries, so no shift is needed for localization).

All floating-point comparisons use the Theorem-2 tolerance, so a
fault-free product can never be flagged (no false positives).

Only the raw product depends on the kernel choice (:mod:`repro.backends`):
it goes through :func:`repro.sparse.spmv.spmv_kernel`, whose one routing
test gives a struck matrix the wild-read kernel on ``scipy`` too.  The
snapshot, the checksums, the residuals and the decoder are the same
NumPy arithmetic on both kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.backends import kernel_matvec
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv_kernel
from repro.abft.checksums import SpmvChecksums, compute_checksums

__all__ = ["SpmvStatus", "SpmvResiduals", "ProtectedSpmvResult", "protected_spmv"]


class SpmvStatus(enum.Enum):
    """Outcome of a protected SpMxV."""

    OK = "ok"  #: all checksums passed; y is trusted
    CORRECTED = "corrected"  #: a single error was detected and repaired
    DETECTED = "detected"  #: an error was detected (detection-only mode)
    UNCORRECTABLE = "uncorrectable"  #: ≥ 2 errors; caller must roll back


#: One verification pass's residual groups as Python floats:
#: ``(dr, dx, dxp, thresholds)``, one entry per checksum row each.
Check = tuple[list[float], list[float], list[float], list[float]]


def _rows_flagged(dr: "list[float]") -> bool:
    """The exact row-pointer test fails.

    Pointers are integers, so any true discrepancy is ≥ 1; a non-finite
    residual (overflowed corrupted pointer) also flags.
    """
    for v in dr:
        if not math.isfinite(v) or abs(v) >= 0.5:
            return True
    return False


def _over(residuals: "list[float]", thresholds: "list[float]") -> bool:
    """A residual exceeds its Theorem-2 threshold.

    NaN/inf residuals — a flipped exponent bit can push a value to
    ~1e300 and overflow the checksum algebra — always flag.
    """
    for v, t in zip(residuals, thresholds):
        if not math.isfinite(v) or abs(v) > t:
            return True
    return False


def _clean(check: Check) -> bool:
    """The verdict: every test of one pass passes.

    Scalar arithmetic on purpose: the groups hold one or two floats,
    and ndarray reductions over them cost more than the comparisons.
    """
    dr, dx, dxp, thresholds = check
    return not (_rows_flagged(dr) or _over(dx, thresholds) or _over(dxp, thresholds))


@dataclass(frozen=True)
class SpmvResiduals:
    """The raw checksum residuals of one verification pass."""

    dr: np.ndarray  #: row-pointer residuals, one per checksum row (exact)
    dx: np.ndarray  #: output/matrix residuals, one per checksum row
    dxp: np.ndarray  #: input-vector residuals, one per checksum row
    thresholds: np.ndarray  #: Theorem-2 thresholds for dx/dxp rows

    @classmethod
    def from_check(cls, check: Check) -> "SpmvResiduals":
        """The arrays of one pass's float groups."""
        return cls(*(np.array(group, dtype=np.float64) for group in check))

    @property
    def rowidx_flagged(self) -> bool:
        """True when the (exact) row-pointer test fails (see :func:`_rows_flagged`)."""
        return _rows_flagged(self.dr.tolist())

    @property
    def dx_flagged(self) -> bool:
        """True when the matrix/computation test exceeds tolerance (NaN/inf flags)."""
        return _over(self.dx.tolist(), self.thresholds.tolist())

    @property
    def dxp_flagged(self) -> bool:
        """True when the input-vector test exceeds tolerance (NaN/inf flags)."""
        return _over(self.dxp.tolist(), self.thresholds.tolist())

    @property
    def clean(self) -> bool:
        """True when every test passes."""
        return _clean(
            (self.dr.tolist(), self.dx.tolist(), self.dxp.tolist(), self.thresholds.tolist())
        )


class ProtectedSpmvResult:
    """Result of :func:`protected_spmv`.

    Attributes
    ----------
    y:
        The output vector.  Trustworthy iff ``status`` is ``OK`` or
        ``CORRECTED``.
    status:
        See :class:`SpmvStatus`.
    residuals:
        The residuals of the *first* verification pass (before any
        correction), for diagnostics.  A product that verified clean
        keeps them as floats and builds the :class:`SpmvResiduals`
        only when this is read.
    correction:
        The correction outcome when a repair was attempted, else None.
    """

    __slots__ = ("y", "status", "correction", "_residuals")

    def __init__(
        self,
        y: np.ndarray,
        status: SpmvStatus,
        residuals: "SpmvResiduals | Check",
        correction: "object | None" = None,
    ) -> None:
        self.y = y
        self.status = status
        self.correction = correction
        # The SpmvResiduals, or a clean product's float groups until read.
        self._residuals = residuals

    @property
    def residuals(self) -> SpmvResiduals:
        res = self._residuals
        if type(res) is tuple:
            res = self._residuals = SpmvResiduals.from_check(res)
        return res

    @property
    def trusted(self) -> bool:
        """Whether the caller may use ``y`` without recovery."""
        return self.status in (SpmvStatus.OK, SpmvStatus.CORRECTED)


def _snapshot(x: np.ndarray, buf: "np.ndarray | None") -> np.ndarray:
    """The reliable copy of ``x`` (into the workspace buffer if given)."""
    if buf is None:
        return x.copy()
    np.copyto(buf, x)
    return buf


def _verify(
    a: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    x_ref: np.ndarray,
    cks: SpmvChecksums,
    buffers: "tuple | None" = None,
    dr_zero: bool = False,
) -> Check:
    """Evaluate all checksum residuals for the current state.

    Each group comes back as Python floats, for :func:`_clean`.  The
    caller owns the floating-point error state: corrupted data can hold
    ±1e300-scale values whose checksum algebra overflows, and the
    resulting inf/NaN residuals flag, so the overflow is expected.

    ``buffers`` — optional workspace pair ``(ridx, xdiff)`` of O(n)
    ``float64`` scratch arrays for the row-pointer cast and the
    ``x' − y`` difference; the floats computed are identical either way.

    ``dr_zero`` — caller certifies ``a.rowidx`` is byte-identical to
    the row pointers the checksums were computed from, making the
    (exact) row-pointer residual ``cr − Wᵀ·Rowidx`` identically zero
    without the O(n) evaluation: both sides are the same dot product of
    the same bytes.
    """
    w = cks.weights
    # Row-pointer test (exact integer arithmetic in float64).
    if dr_zero:
        dr = [0.0] * cks.nchecks
    else:
        if buffers is None:
            ridx = a.rowidx[1:].astype(np.float64)
        else:
            ridx = buffers[0]
            np.copyto(ridx, a.rowidx[1:])  # casting copy ≡ astype
        dr = (cks.rowidx_checksums - w.dot(ridx)).tolist()
    # Matrix/computation test: Wᵀy − Cᵀx̃.  (``ndarray.dot`` makes the
    # BLAS call ``@`` makes, bit for bit, with less dispatch around it.)
    dx = (w.dot(y) - cks.column_checksums.dot(x)).tolist()
    # Input-vector test.
    if cks.nchecks == 1:
        # Theorem-1 shifted form: (c+k)ᵀx' − (Σy + kΣx̃).  ``add.reduce``
        # is what ``ndarray.sum`` calls, without its Python wrapper.  The
        # arithmetic stays on NumPy scalars: with two NaN operands, which
        # one's sign survives depends on the operand order they use.
        sy, sx = np.add.reduce(y), np.add.reduce(x)
        dxp = [float(cks.shifted_first_row.dot(x_ref) - (sy + cks.shift * sx))]
    else:
        # Algorithm-2 line-22 form: Wᵀ(x'−y) − (W−C)ᵀx̃.
        diff = x_ref - y if buffers is None else np.subtract(x_ref, y, out=buffers[1])
        dxp = (w.dot(diff) - cks.weights_minus_checksums.dot(x)).tolist()
    # Theorem 2 bounds the rounding of the products actually computed,
    # which involve the *live* x̃ (possibly corrupted, hence possibly
    # much larger than the snapshot); take the max of both magnitudes
    # so a large corruption of x cannot push benign rounding of the
    # matrix test over its threshold.  ``maximum.reduce`` is what
    # ``ndarray.max`` calls, without its Python wrapper.
    if not x.shape[0]:
        x_inf = 0.0
    elif x_ref is x:  # no snapshot was needed: one magnitude
        mag = np.abs(x) if buffers is None else np.abs(x, out=buffers[1])
        x_inf = float(np.maximum.reduce(mag))
    else:
        # Python's max of the two: a NaN second operand loses to the first.
        x_inf = max(
            float(np.maximum.reduce(np.abs(x_ref))), float(np.maximum.reduce(np.abs(x)))
        )
    if not math.isfinite(x_inf):
        x_inf = float(np.abs(x_ref).max(initial=0.0))
    return dr, dx, dxp, cks.tolerance.threshold_list(x_inf)


def protected_spmv(
    a: CSRMatrix,
    x: np.ndarray,
    checksums: SpmvChecksums | None = None,
    *,
    correct: bool = True,
    fault_hook: Callable[[str, CSRMatrix, np.ndarray, np.ndarray | None], None] | None = None,
    ratio_tol: float = 1e-4,
    workspace: "object | None" = None,
    trust_structure_stamp: bool = False,
    backend: "str | object | None" = None,
) -> ProtectedSpmvResult:
    """Compute ``y = A x`` with ABFT protection.

    Parameters
    ----------
    a:
        The matrix.  Mutated in place if a matrix error is corrected.
    x:
        The input vector.  Mutated in place if an x-error is corrected.
    checksums:
        Precomputed metadata from :func:`compute_checksums`; when None
        it is computed on the fly (which assumes ``a`` is currently
        clean — amortize it across calls in real use).
    correct:
        True → double-detect / single-correct (requires 2 checksum
        rows); False → detection only.
    fault_hook:
        Test/simulation hook.  Called as ``hook("pre", a, x, None)``
        after the reliable snapshot of ``x`` is taken (inject memory
        errors here) and ``hook("post", a, x, y)`` after the raw
        product (inject computation errors into ``y`` here).
    ratio_tol:
        The ε of Section 3.2: maximum distance of a residual ratio from
        the nearest integer for single-error localization.
    workspace:
        Optional :class:`repro.perf.SolveWorkspace` (duck-typed)
        providing preallocated buffers for the reliable input snapshot,
        the output vector and the SpMxV scratch.  **Aliasing contract:**
        with a workspace, the returned ``y`` is workspace-owned and only
        valid until the next workspace-backed call — copy it out if it
        must survive.  The arithmetic is bit-identical either way.
    trust_structure_stamp:
        Caller certifies that ``a.structure_clean`` (evaluated lazily,
        *after* the fault hook has run) implies ``a.rowidx`` is
        byte-identical to the row pointers the checksums were computed
        from — true for the resilience engine's workspace-managed live
        matrix, whose stamp is only re-armed on verified byte-equality.
        Lets the exact row-pointer residual be taken as zero without
        the O(n) evaluation.  Leave False for hand-stamped matrices,
        where the stamp certifies validity, not equality.
    backend:
        The kernel of the *unreliable* product, ``"reference"`` (or
        ``None``) or ``"scipy"``, by name or as the object of
        :func:`repro.backends.get_backend`.  The checksum arithmetic —
        snapshot, residuals, thresholds — is the same NumPy either
        way (selective reliability), and a matrix without the
        ``structure_clean`` stamp is multiplied by the wild-read
        kernel on both, so detection semantics do not depend on it.

    Returns
    -------
    ProtectedSpmvResult
    """
    x = np.asarray(x, dtype=np.float64)
    if checksums is None:
        checksums = compute_checksums(a, nchecks=2 if correct else 1)
    if correct and checksums.nchecks < 2:
        raise ValueError("correction requires nchecks=2 checksums")
    if checksums.shape != a.shape:
        raise ValueError(
            f"checksums were computed for shape {checksums.shape}, matrix is {a.shape}"
        )
    if x.shape != (a.ncols,):
        raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
    matvec = kernel_matvec(backend)
    # Corrupted data overflows the kernel and the checksum algebra; the
    # inf/NaN it leaves is what flags, so the overflow is expected.
    with np.errstate(all="ignore"):
        return verified_spmv(
            a,
            x,
            checksums,
            correct,
            fault_hook,
            ratio_tol,
            workspace,
            trust_structure_stamp,
            matvec,
        )


def verified_spmv(
    a: CSRMatrix,
    x: np.ndarray,
    checksums: SpmvChecksums,
    correct: bool,
    fault_hook: "Callable | None" = None,
    ratio_tol: float = 1e-4,
    workspace: "object | None" = None,
    trust_structure_stamp: bool = False,
    matvec: "Callable | None" = None,
) -> ProtectedSpmvResult:
    """:func:`protected_spmv` without its per-call guards, for callers
    that own them: ``x`` is a ``float64`` array of shape ``(a.ncols,)``,
    ``checksums`` fit ``a`` and ``correct``, ``matvec`` is the kernel
    as :func:`repro.backends.kernel_matvec` resolves it, and the caller
    sets the floating-point error state.  The resilience engine's protected
    products come here, under the one ``np.errstate`` of their solve.
    """
    # Reliable snapshot (Algorithm 2 line 3) and input checksum (line 10),
    # taken before any unreliable work — when something can still write
    # x.  Without a fault hook nothing does before verification, so the
    # input is its own snapshot and cx is derived only if the decoder
    # runs (below).
    if workspace is None:
        x_buf = y_buf = scratch = verify_buffers = None
    else:
        x_buf, y_buf, scratch, ridx_buf, xdiff_buf = workspace.abft_buffers(
            a.nrows, a.ncols, a.nnz
        )
        verify_buffers = (ridx_buf, xdiff_buf)
    x_ref, cx = x, None
    if fault_hook is not None:
        x_ref = _snapshot(x, x_buf)
        cx = checksums.x_checksums(x)
        fault_hook("pre", a, x, None)
    y = spmv_kernel(a, x, y_buf, scratch, matvec)
    if fault_hook is not None:
        fault_hook("post", a, x, y)

    check = _verify(
        a,
        x,
        y,
        x_ref,
        checksums,
        verify_buffers,
        # The stamp, or a workspace's wild-set hint: both certify rowidx.
        dr_zero=trust_structure_stamp and a.rows_clean,
    )
    if _clean(check):
        return ProtectedSpmvResult(y, SpmvStatus.OK, check)

    # Metrics only on the rare non-clean outcomes: the clean path above
    # (the overwhelmingly common one) stays counter-free by design.
    from repro.obs.metrics import METRICS

    residuals = SpmvResiduals.from_check(check)
    if not correct:
        METRICS.inc("abft.detected")
        return ProtectedSpmvResult(y, SpmvStatus.DETECTED, residuals)

    from repro.abft.correction import correct_errors

    if cx is None:
        # The decoder may repair x in place: snapshot the (unchanged)
        # input first, so the reliable copy cannot move with it.
        x_ref = _snapshot(x, x_buf)
        cx = checksums.x_checksums(x)
    outcome = correct_errors(
        a, x, y, x_ref, cx, checksums, residuals, ratio_tol=ratio_tol
    )
    if outcome.corrected:
        # Re-verify after repair: the repaired state must be fully clean.
        if _clean(_verify(a, x, y, x_ref, checksums, verify_buffers)):
            METRICS.inc("abft.corrected")
            return ProtectedSpmvResult(y, SpmvStatus.CORRECTED, residuals, outcome)
    METRICS.inc("abft.uncorrectable")
    return ProtectedSpmvResult(y, SpmvStatus.UNCORRECTABLE, residuals, outcome)
