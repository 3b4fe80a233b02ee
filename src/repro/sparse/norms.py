"""Matrix norms and checksum-adjacent reductions on CSR matrices.

The Theorem-2 tolerance needs ``‖A‖₁ = max_j Σ_i |a_ij|`` (Eq. 8 of the
paper) and the ABFT checksums need exact column sums; both are simple
scatter-reductions over the CSR arrays.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["column_sums", "row_sums", "norm1", "norm_inf", "max_row_nnz", "max_col_nnz"]


def column_sums(a: CSRMatrix, weights: np.ndarray | None = None) -> np.ndarray:
    """Column sums ``c_j = Σ_i w_i a_ij`` (unweighted when ``weights`` is None).

    This is the checksum primitive ``wᵀA`` of the paper: a row-weighted
    column reduction computed with one scatter-add over the nonzeros.
    """
    n_rows, n_cols = a.shape
    out = np.zeros(n_cols, dtype=np.float64)
    if a.nnz == 0:
        return out
    if weights is None:
        contrib = a.val
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n_rows,):
            raise ValueError(f"weights must have shape ({n_rows},), got {weights.shape}")
        # Each row's weight expanded over its nonzeros, then scaled by
        # val in place: one nnz-length array, the same products.
        contrib = np.repeat(weights, np.diff(a.rowidx))
        np.multiply(a.val, contrib, out=contrib)
    np.add.at(out, a.colid, contrib)
    return out


def row_sums(a: CSRMatrix) -> np.ndarray:
    """Row sums ``r_i = Σ_j a_ij`` via segment reduction."""
    out = np.zeros(a.nrows, dtype=np.float64)
    starts = a.rowidx[:-1]
    nonempty = a.rowidx[1:] > starts
    if nonempty.any():
        out[nonempty] = np.add.reduceat(a.val, starts[nonempty])
    return out


def norm1(a: CSRMatrix) -> float:
    """``‖A‖₁`` — maximum absolute column sum (paper Eq. 8)."""
    n_cols = a.ncols
    sums = np.zeros(n_cols, dtype=np.float64)
    np.add.at(sums, a.colid, np.abs(a.val))
    return float(sums.max(initial=0.0))


def norm_inf(a: CSRMatrix) -> float:
    """``‖A‖∞`` — maximum absolute row sum."""
    out = np.zeros(a.nrows, dtype=np.float64)
    starts = a.rowidx[:-1]
    nonempty = a.rowidx[1:] > starts
    if nonempty.any():
        out[nonempty] = np.add.reduceat(np.abs(a.val), starts[nonempty])
    return float(out.max(initial=0.0))


def max_row_nnz(a: CSRMatrix) -> int:
    """Maximum nonzeros in any row."""
    return int(np.diff(a.rowidx).max(initial=0))


def max_col_nnz(a: CSRMatrix) -> int:
    """Maximum nonzeros in any column (the n' of the paper's Sec. 5.1).

    The paper bounds the relative error of computing ``‖A‖₁`` by
    ``n' u`` where ``n'`` is the maximum column count; for the sparse
    matrices studied, n' is small so the norm is accurate.
    """
    if a.nnz == 0:
        return 0
    counts = np.bincount(a.colid, minlength=a.ncols)
    return int(counts.max())
