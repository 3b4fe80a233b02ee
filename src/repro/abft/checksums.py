"""Checksum precomputation for the protected SpMxV.

This is ``COMPUTECHECKSUMS`` of the paper's Algorithm 2.  For a matrix
``A`` and weight matrix ``W`` (rows ``w⁽¹⁾ = (1,…,1)`` and optionally
``w⁽²⁾ = (1,…,n)``) we store:

- ``column_checksums``  ``C[l, j] = Σ_i w⁽ˡ⁾_i a_ij`` — i.e. ``WᵀA``
  (stored with checks as rows for cache-friendly reuse);
- ``shift``             the constant ``k`` making every *shifted*
  first-row checksum ``C[0, j] + k`` nonzero (Theorem 1, item 1);
- ``rowidx_checksums``  ``cr[l] = Σ_{i=1}^{n} w⁽ˡ⁾_i · Rowidx_i`` — the
  weighted sum of the row-pointer entries that the running counter
  ``sr`` accumulates during the product (Theorem 1, items 3–4);
- ``tolerance``         the matrix-dependent part of the Theorem-2
  bound, so the per-call tolerance costs O(1) extra work.

Everything here is computed **once per matrix** — the paper stresses
that amortization ("in the common scenario of many SpMxVs with the same
matrix, it is enough to invoke it once") — and is assumed to live in
reliable memory (selective reliability).  The solve's workspace owns
that once: :meth:`repro.perf.SolveWorkspace.checksums` keeps each set
for as long as the workspace stays bound to its matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.norms import column_sums, norm1
from repro.util.validate import check_square
from repro.abft.weights import weight_matrix, choose_shift
from repro.abft.tolerance import ToleranceModel

__all__ = [
    "SpmvChecksums",
    "compute_checksums",
    "exact_rowidx_checksums",
]


@dataclass(frozen=True)
class SpmvChecksums:
    """Reliable per-matrix ABFT metadata for protected SpMxV calls.

    Attributes
    ----------
    nchecks:
        1 for single-error detection, 2 for double detection / single
        correction.
    weights:
        The ``(nchecks, n)`` weight matrix ``Wᵀ``.
    column_checksums:
        ``(nchecks, n)`` array, row ``l`` holding ``w⁽ˡ⁾ᵀA``.
    weights_minus_checksums:
        ``W − C`` for the line-22 input test — both operands are
        per-matrix constants, so allocating the difference on every
        verification would be pure hot-loop waste.
    shift:
        The constant ``k`` of Theorem 1; ``column_checksums[0] + shift``
        has no zero entry, which is what makes errors in ``x`` visible
        even for zero-sum columns (e.g. graph Laplacians).
    shifted_first_row:
        ``C[0, :] + k`` — the shifted checksum vector ``c`` of Theorem 1
        that every single-check verification reads, stored once.
    rowidx_checksums:
        ``(nchecks,)`` weighted checksums of ``Rowidx[1..n]`` (the
        entries the running counter visits), in exact float arithmetic
        (row pointers are integers well below 2⁵³ so this is exact).
    tolerance:
        Matrix-dependent Theorem-2 tolerance model.
    """

    nchecks: int
    weights: np.ndarray
    column_checksums: np.ndarray
    weights_minus_checksums: np.ndarray
    shift: float
    shifted_first_row: np.ndarray
    rowidx_checksums: np.ndarray
    rowidx_checksums_exact: tuple[int, ...]
    tolerance: ToleranceModel
    shape: tuple[int, int] = field(default=(0, 0))

    def x_checksums(self, x: np.ndarray) -> np.ndarray:
        """``cx = Wᵀx`` (Algorithm 2 line 10) for the current input vector.

        Computed reliably at call entry; O(n·nchecks).
        """
        return self.weights @ np.asarray(x, dtype=np.float64)


def compute_checksums(
    a: CSRMatrix,
    *,
    nchecks: int = 2,
    shift_margin: float = 1.0,
) -> SpmvChecksums:
    """Build the reliable checksum metadata for matrix ``a``.

    Cost is ``O(nchecks · nnz(A))`` — the ``O(k · nnz)`` setup the paper
    quotes in Section 3.2 — plus ``O(n)`` for the row-pointer checksum.

    Parameters
    ----------
    a:
        The (clean) matrix to protect.  Must be square and structurally
        valid; a non-square shape raises ``ValueError``.
    nchecks:
        Number of checksum rows (1 = detect one error, 2 = detect two /
        correct one).
    shift_margin:
        Safety margin passed to :func:`repro.abft.weights.choose_shift`.

    The metadata is reliable arithmetic, the same bits whichever kernel
    (:mod:`repro.backends`) the products it protects run on.
    """
    n = check_square("matrix", a.shape)
    w = weight_matrix(n, nchecks)
    cks = np.empty((nchecks, n), dtype=np.float64)
    cks[0] = column_sums(a)  # w⁽¹⁾ = ones: plain column sums
    if nchecks == 2:
        cks[1] = column_sums(a, weights=w[1])
    shift = choose_shift(cks[0], margin=shift_margin)
    shifted = cks[0] + shift

    # Weighted checksums of the row-pointer entries the running counter
    # sr accumulates (Rowidx_1 .. Rowidx_n in the paper's 1-based
    # notation; with 0-based arrays these are rowidx[1:].  rowidx[0] is
    # pinned to 0 and checked structurally instead).
    ridx = a.rowidx[1:].astype(np.float64)
    cr = w @ ridx
    # Exact integer form of the same checksums: float64 verification is
    # fine for *detection* (any corruption leaves a residual ≥ 0.5) but
    # the *correction* delta must be bit-exact even when a flipped
    # pointer is ~2⁶² and the float sum rounds low bits away.
    cr_exact = exact_rowidx_checksums(a.rowidx, nchecks)

    tol = ToleranceModel.for_matrix(
        n=n,
        norm1_a=norm1(a),
        weights_inf=np.abs(w).max(axis=1),
        shifted_c_inf=float(np.abs(shifted).max(initial=0.0)),
    )
    return SpmvChecksums(
        nchecks=nchecks,
        weights=w,
        column_checksums=cks,
        weights_minus_checksums=w - cks,
        shift=shift,
        shifted_first_row=shifted,
        rowidx_checksums=cr,
        rowidx_checksums_exact=cr_exact,
        tolerance=tol,
        shape=a.shape,
    )


def exact_rowidx_checksums(rowidx: np.ndarray, nchecks: int) -> "tuple[int, ...]":
    """``cr[l] = Σ_i w⁽ˡ⁾_i · Rowidx_i`` over ``rowidx[1:]`` in Python
    integers, exact whatever the pointers hold (a sign-bit flip makes
    one ≈ −2⁶³, and the weighted sum overflows int64).

    The pointers are boxed once (``tolist``) and summed and multiplied
    by builtins (``sum``, ``map(operator.mul, …)``), so no Python
    bytecode runs per element and nothing n-long is held beside the
    one list.
    """
    pointers = rowidx[1:].tolist()
    sums = (sum(pointers),)
    if nchecks == 2:
        sums += (sum(map(operator.mul, range(1, len(pointers) + 1), pointers)),)
    return sums

