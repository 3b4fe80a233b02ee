"""Matrix norms and checksum-adjacent reductions on CSR matrices.

The Theorem-2 tolerance needs ``‖A‖₁ = max_j Σ_i |a_ij|`` (Eq. 8 of the
paper) and the ABFT checksums need exact column sums; both are simple
scatter-reductions over the CSR arrays.  Algorithm 1's stopping
threshold adds the vector 2-norm :func:`norm2`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import row_tiles, spans

__all__ = ["column_sums", "row_sums", "norm1", "norm2", "norm_inf", "max_row_nnz", "max_col_nnz"]


def column_sums(a: CSRMatrix, weights: np.ndarray | None = None) -> np.ndarray:
    """Column sums ``c_j = Σ_i w_i a_ij`` (unweighted when ``weights`` is None).

    This is the checksum primitive ``wᵀA`` of the paper: a row-weighted
    column reduction computed with one scatter-add over the nonzeros
    (:func:`scatter_weighted`, a tile at a time).
    """
    n_rows, n_cols = a.shape
    out = np.zeros(n_cols, dtype=np.float64)
    if a.nnz == 0:
        return out
    if weights is None:
        np.add.at(out, a.colid, a.val)
        return out
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n_rows,):
        raise ValueError(f"weights must have shape ({n_rows},), got {weights.shape}")
    scatter_weighted(out, a.rowidx, weights, a.val, a.colid)
    return out


def scatter_weighted(
    out: np.ndarray, bounds: np.ndarray, weights: np.ndarray, val: np.ndarray, cols: np.ndarray
) -> None:
    """``out[cols[p]] += weights[i] · val[p]`` for every entry ``p`` of
    every row ``i`` (``bounds[i] <= p < bounds[i + 1]``, monotone
    pointers), in item order.

    One row-aligned kernel tile (:func:`~repro.sparse.spmv.row_tiles`)
    at a time: each row's weight is expanded over the tile's entries
    and scaled by ``val`` in place, so no temporary is longer than a
    tile (or than one row that alone holds more).  ``np.add.at`` adds
    in item order across the tiles, so into a zeroed ``out`` the sums
    are one whole-array ``np.add.at``'s, or ``np.bincount``'s, bit for
    bit.
    """
    for r0, r1 in row_tiles(bounds):
        p0, p1 = int(bounds[r0]), int(bounds[r1])
        w = np.repeat(weights[r0:r1], np.diff(bounds[r0 : r1 + 1]))
        np.multiply(val[p0:p1], w, out=w)
        np.add.at(out, cols[p0:p1], w)


def row_sums(a: CSRMatrix) -> np.ndarray:
    """Row sums ``r_i = Σ_j a_ij`` via segment reduction."""
    out = np.zeros(a.nrows, dtype=np.float64)
    starts = a.rowidx[:-1]
    nonempty = a.rowidx[1:] > starts
    if nonempty.any():
        out[nonempty] = np.add.reduceat(a.val, starts[nonempty])
    return out


def norm1(a: CSRMatrix) -> float:
    """``‖A‖₁`` — maximum absolute column sum (paper Eq. 8), scattered
    one kernel tile of ``|val|`` at a time (the same item order, so the
    same sums as one whole-array scatter)."""
    n_cols = a.ncols
    sums = np.zeros(n_cols, dtype=np.float64)
    for p0, p1 in spans(a.nnz):
        np.add.at(sums, a.colid[p0:p1], np.abs(a.val[p0:p1]))
    return float(sums.max(initial=0.0))


def norm2(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a float64 vector, bit for bit,
    without its dispatch: the same ``ravel(order="K")``, dot product and
    correctly rounded square root (``tests/test_sparse_norms.py`` pins
    it).  The resilience engine builds its stopping threshold from it."""
    x = v.ravel(order="K")
    return math.sqrt(float(x.dot(x)))


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
