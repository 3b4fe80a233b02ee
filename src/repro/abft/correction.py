"""Single-error correction for the protected SpMxV (``CORRECTERRORS``).

Given the residuals of a failed verification, the decoder of Section
3.2 determines *where* a single error struck and repairs it in place:

1. **Rowidx** (``dr ≠ 0``): the ratio ``dr₂/dr₁`` names the corrupted
   pointer; adding ``dr₁`` restores it (``dr = clean − faulty``).  The
   rows that pointer delimits are recomputed.
2. **Matrix or computation** (``dx`` over tolerance): the ratio
   ``dx₂/dx₁`` names the faulty output row ``d``.  Recomputing the
   column checksums ``C' = WᵀÃ`` of the *current* matrix and comparing
   with the stored clean ``C`` distinguishes the sub-cases by the
   number ``z`` of differing columns:

   - ``z = 0`` — the matrix is intact, so the error hit the
     computation of ``y_d``; recompute that entry.
   - ``z = 1`` — a ``Val`` entry in row ``d``, column ``f`` changed;
     the checksum difference divided by the row weight gives the exact
     perturbation to subtract.
   - ``z = 2`` — a ``Colid`` entry moved a value between the two
     flagged columns; switch it back (each candidate is trial-flipped
     and kept only if verification then passes).
   - ``z > 2`` — more than one error: uncorrectable.
3. **Input vector** (only ``dxp`` over tolerance): the ratio
   ``dxp₂/dxp₁`` names the corrupted entry of ``x``; the error value is
   ``τ = Σx̃ − cx₁`` (the drift of the reliable input checksum), the
   entry is restored and ``y`` is patched by subtracting ``τ·A eₐ``
   (the paper's ``y − A xᵗ`` update) rather than recomputed.

Every repair path ends with the caller re-verifying all checksums; if
the state is still inconsistent the strike was a multiple error and the
outcome is *uncorrectable* — the solver then falls back to backward
recovery (rollback).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.norms import scatter_weighted
from repro.sparse.spmv import scan
from repro.abft.checksums import SpmvChecksums, exact_rowidx_checksums

__all__ = ["CorrectionOutcome", "correct_errors"]


@dataclass(frozen=True)
class CorrectionOutcome:
    """What the decoder did.

    Attributes
    ----------
    corrected:
        True when a single error was located and repaired.
    kind:
        One of ``"rowidx"``, ``"val"``, ``"colid"``, ``"computation"``,
        ``"x"`` or ``"none"`` (no repair possible).
    position:
        The repaired location: row-pointer index, output row, or vector
        entry, depending on ``kind``; −1 when not applicable.
    detail:
        Human-readable description for the trace event.
    """

    corrected: bool
    kind: str
    position: int = -1
    detail: str = ""


def _near_integer(ratio: float, ratio_tol: float) -> int | None:
    """Round ``ratio`` to the nearest integer if within ``ratio_tol`` of it.

    Non-finite ratios (overflowed residuals from extreme bit flips)
    are never localizable.
    """
    if not np.isfinite(ratio):
        return None
    nearest = round(ratio)
    if abs(ratio - nearest) <= ratio_tol * max(1.0, abs(ratio)):
        return int(nearest)
    return None


def _row_bounds(a: CSRMatrix, i: int) -> "tuple[int, int]":
    """Row ``i``'s ``[lo, hi)`` slice of the entry arrays, each pointer
    clipped into ``[0, nnz]`` as the kernel reads it.  ``rowidx[0]`` is
    outside the pointer checksums, so a decode can reach here with it
    struck (e.g. negative after a sign-bit flip)."""
    nnz = a.nnz
    # Scalar int clipping in Python: np.clip on a 0-d value costs ~µs
    # of dispatch and this helper runs once per repaired/affected row.
    lo = int(a.rowidx[i])
    lo = 0 if lo < 0 else (nnz if lo > nnz else lo)
    hi = int(a.rowidx[i + 1])
    hi = 0 if hi < 0 else (nnz if hi > nnz else hi)
    return lo, hi


def _recompute_row(a: CSRMatrix, x: np.ndarray, y: np.ndarray, i: int) -> None:
    """Recompute ``y[i]`` from the current matrix and input (clipped bounds)."""
    lo, hi = _row_bounds(a, i)
    if hi > lo:
        cols = np.mod(a.colid[lo:hi], a.ncols)
        y[i] = float(a.val[lo:hi] @ x[cols])
    else:
        y[i] = 0.0


def _column_entries(a: CSRMatrix, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and values of column ``j`` (O(nnz) scan; correction-path only)."""
    colid = a.colid
    positions = scan(a.nnz, lambda p0, p1: colid[p0:p1] == j)
    rows = np.searchsorted(a.rowidx, positions, side="right") - 1
    return rows, a.val[positions]


def _current_column_checksums(
    a: CSRMatrix,
    cks: SpmvChecksums,
    counts: "np.ndarray | None" = None,
    wild: "np.ndarray | None" = None,
) -> np.ndarray:
    """``C' = WᵀÃ`` of the current (possibly corrupted) matrix.

    ``counts`` (:func:`_row_counts`) and ``wild``
    (:meth:`~repro.sparse.csr.CSRMatrix.wild_positions`) may be passed
    in when the caller evaluates several candidate repairs against an
    unchanged ``rowidx`` with in-range trial indices (the z = 2 colid
    trial loop).  The unit check scatters ``val`` itself; the ramp
    check goes through :func:`~repro.sparse.norms.scatter_weighted`,
    one kernel tile at a time, over the pointers the counts imply.
    """
    n_cols = a.ncols
    out = np.zeros((cks.nchecks, n_cols), dtype=np.float64)
    if counts is None:
        counts = _row_counts(a)
    if wild is None:
        wild = a.wild_positions()
    # A corrupted rowidx can make the counts disagree with nnz; in that
    # case the rowidx branch should have handled it first, but guard
    # anyway so the decoder never crashes mid-recovery.
    m = min(int(counts.sum()), a.nnz)
    cols, val = a.colid[:m], a.val[:m]
    # The wild reads wrap modulo n, as the kernel sees them: rewrite
    # those few words in place for the scatter and put them back, in
    # place of an O(nnz) wrapped copy of colid.
    held = a.colid[wild]
    if wild.size:
        a.colid[wild] = np.mod(held, n_cols)
    try:
        # bincount accumulates in the same sequential item order as
        # np.add.at (bit-identical sums).  Check 0's weights are all
        # ones and ``val · 1`` is ``val`` bit for bit, so only the ramp
        # row is expanded.
        out[0] = np.bincount(cols, weights=val, minlength=n_cols)
        if cks.nchecks > 1:
            # Entry p carries the weight of the row its count places it
            # in: the pointers the counts imply, truncated at m.
            ends = np.zeros(counts.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=ends[1:])
            np.minimum(ends, m, out=ends)
            for l in range(1, cks.nchecks):
                scatter_weighted(out[l], ends, cks.weights[l], val, cols)
    finally:
        if wild.size:
            a.colid[wild] = held
    return out


def _row_counts(a: CSRMatrix) -> np.ndarray:
    """Stored nonzeros per row, per the *current* pointers."""
    if a.rows_clean:  # monotone in-range pointers: the clip is a no-op
        return np.diff(a.rowidx)
    # A struck pointer can leave the clipped array non-monotone; such a
    # row reads as empty (end <= start), the same way spmv reads it.
    return np.maximum(np.diff(np.clip(a.rowidx, 0, a.nnz)), 0)


def correct_errors(
    a: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    x_ref: np.ndarray,
    cx: np.ndarray,
    cks: SpmvChecksums,
    residuals,
    *,
    ratio_tol: float = 1e-4,
) -> CorrectionOutcome:
    """Attempt single-error repair; mutates ``a``, ``x`` and ``y`` in place.

    Parameters mirror the state of :func:`repro.abft.spmv.protected_spmv`
    at verification time; ``residuals`` is the failed
    :class:`~repro.abft.spmv.SpmvResiduals`.  The caller owns the
    floating-point error state (:func:`~repro.abft.spmv.protected_spmv`
    silences it): a decode of corrupted data overflows by design.
    """
    n = a.nrows

    # ------------------------------------------------------------------
    # Case 1: row-pointer corruption.
    # ------------------------------------------------------------------
    if residuals.rowidx_flagged:
        # Recompute the residuals in exact integer arithmetic: a flipped
        # pointer can be ~2⁶², where the float64 sums used for the fast
        # detection pass round away the low bits the repair delta needs.
        s0, s1 = exact_rowidx_checksums(a.rowidx, 2)
        dr0 = cks.rowidx_checksums_exact[0] - s0
        dr1 = cks.rowidx_checksums_exact[1] - s1
        if dr0 == 0:
            # Second checksum trips but the first cancels: two pointer
            # errors of opposite sign — beyond single-error correction.
            return CorrectionOutcome(False, "none", detail="rowidx residuals inconsistent")
        if dr1 % dr0 != 0:
            return CorrectionOutcome(False, "none", detail="rowidx ratio not localizable")
        d = dr1 // dr0
        if not (1 <= d <= n):
            return CorrectionOutcome(False, "none", detail="rowidx position out of range")
        # dr = clean − faulty, so adding dr₀ restores the clean pointer.
        # The sum is carried in Python integers: a sign-bit flip makes
        # |faulty| ≈ 2⁶³ and the *delta* overflows int64 even though the
        # restored value is small.
        delta = dr0
        restored = int(a.rowidx[d]) + delta
        if not (0 <= restored <= a.nnz):
            return CorrectionOutcome(
                False, "none", detail=f"rowidx repair out of range: {restored}"
            )
        a.rowidx[d] = restored
        # Pointer rowidx[d] delimits (0-based) rows d−1 and d.
        _recompute_row(a, x, y, d - 1)
        if d < n:
            _recompute_row(a, x, y, d)
        return CorrectionOutcome(
            True, "rowidx", position=d, detail=f"rowidx[{d}] += {delta}"
        )

    # ------------------------------------------------------------------
    # Case 2: matrix-array or computation error (dx over tolerance).
    # ------------------------------------------------------------------
    if residuals.dx_flagged:
        dx = residuals.dx
        if np.all(np.isfinite(dx)):
            if abs(dx[0]) <= residuals.thresholds[0]:
                return CorrectionOutcome(False, "none", detail="dx residuals inconsistent")
            d1 = _near_integer(float(dx[1] / dx[0]), ratio_tol)
            if d1 is None or not (1 <= d1 <= n):
                return CorrectionOutcome(False, "none", detail="dx ratio not localizable")
            d = d1 - 1  # 0-based output row
        else:
            # The residual algebra overflowed (a flipped exponent can
            # push a value to ~1e300, and the ramp-weighted sums top
            # out float64).  The ratio is unusable, but the faulty row
            # announces itself: locate the unique non-finite or
            # astronomically large entry of y and fall through to the
            # column-checksum decode.
            suspicious = np.nonzero(~np.isfinite(y) | (np.abs(y) > 1e150))[0]
            if suspicious.size != 1:
                return CorrectionOutcome(
                    False, "none", detail="dx residuals non-finite, row ambiguous"
                )
            d = int(suspicious[0])

        cur = _current_column_checksums(a, cks)
        diff = cks.column_checksums - cur
        col_tol = cks.tolerance.per_check_factor[:, None]
        flagged = np.nonzero(
            np.any(~np.isfinite(diff) | (np.abs(diff) > col_tol), axis=0)
        )[0]
        z = flagged.size

        if z == 0:
            # Matrix intact: the computation of y_d was hit; recompute it.
            _recompute_row(a, x, y, d)
            return CorrectionOutcome(True, "computation", position=d, detail=f"recomputed y[{d}]")

        if z == 1:
            f = int(flagged[0])
            lo, hi = _row_bounds(a, d)
            hits = lo + np.nonzero(a.colid[lo:hi] == f)[0]
            if hits.size != 1:
                return CorrectionOutcome(
                    False, "none", detail=f"val decode ambiguous in row {d}, col {f}"
                )
            p = int(hits[0])
            if np.isfinite(diff[0, f]):
                # diff[0, f] = (clean − current) column sum = −δ·w₁[d] = −δ.
                a.val[p] += float(diff[0, f])
            else:
                # The corrupted value overflowed the checksum delta;
                # rebuild val[p] directly from the clean (unit-weight)
                # column checksum minus the other entries of column f.
                colid, ncols = a.colid, a.ncols
                others = scan(a.nnz, lambda p0, p1: np.mod(colid[p0:p1], ncols) == f)
                others = others[others != p]
                a.val[p] = float(cks.column_checksums[0, f] - a.val[others].sum())
            _recompute_row(a, x, y, d)
            return CorrectionOutcome(
                True, "val", position=p, detail=f"val[{p}] repaired via column {f} checksum"
            )

        if z == 2:
            f1, f2 = int(flagged[0]), int(flagged[1])
            lo, hi = _row_bounds(a, d)
            # Match on *effective* columns (index mod n): a bit flip can
            # push a column id far out of range, but the kernel — and
            # hence the checksum drift — sees it modulo n.
            eff = np.mod(a.colid[lo:hi], a.ncols)
            candidates = lo + np.nonzero(np.isin(eff, (f1, f2)))[0]
            # Trial-flip each candidate; keep the first flip that makes
            # the column checksums consistent again.  The trials write
            # only in-range colid words, so the row counts and the wild
            # set are computed once.
            counts, wild = _row_counts(a), a.wild_positions()
            for p in candidates:
                p = int(p)
                original = int(a.colid[p])
                a.colid[p] = f2 if original % a.ncols == f1 else f1
                trial = _current_column_checksums(a, cks, counts, wild)
                if np.all(
                    np.abs(cks.column_checksums[:, (f1, f2)] - trial[:, (f1, f2)])
                    <= col_tol
                ):
                    _recompute_row(a, x, y, d)
                    return CorrectionOutcome(
                        True,
                        "colid",
                        position=p,
                        detail=f"colid[{p}]: {original} -> {int(a.colid[p])}",
                    )
                a.colid[p] = original
            return CorrectionOutcome(False, "none", detail="colid decode failed")

        return CorrectionOutcome(
            False, "none", detail=f"{z} checksum columns differ (>2): multiple errors"
        )

    # ------------------------------------------------------------------
    # Case 3: input-vector error (only dxp over tolerance).
    # ------------------------------------------------------------------
    if residuals.dxp_flagged:
        dxp = residuals.dxp
        if cks.nchecks < 2 or abs(dxp[0]) <= residuals.thresholds[0]:
            return CorrectionOutcome(False, "none", detail="dxp residuals inconsistent")
        d1 = _near_integer(float(dxp[1] / dxp[0]), ratio_tol)
        if d1 is None or not (1 <= d1 <= a.ncols):
            return CorrectionOutcome(False, "none", detail="dxp ratio not localizable")
        d = d1 - 1  # 0-based entry of x
        # τ = Σx̃ − cx₁ (Section 3.2) identifies the perturbation; the
        # restoration itself copies the reliable snapshot entry, which
        # is exact where subtracting the float τ would leave O(u·Σ|x̃|)
        # rounding behind for large corruptions.
        tau = float(x.sum() - cx[0])
        x[d] = x_ref[d]
        # The paper updates y by subtracting A·(τ eₐ); subtracting a
        # large τ back out leaves O(u·τ) cancellation residue that the
        # re-verification would flag, so the affected rows (column d's
        # support) are recomputed from the repaired x instead — same
        # O(column) cost, exact result.  (Sorted set, not np.unique,
        # which would import numpy.ma into every repairing process.)
        rows, _ = _column_entries(a, d)
        for i in sorted(set(rows.tolist())):
            _recompute_row(a, x, y, i)
        return CorrectionOutcome(True, "x", position=d, detail=f"x[{d}] -= {tau:.6e}")

    return CorrectionOutcome(False, "none", detail="no residual flagged")
