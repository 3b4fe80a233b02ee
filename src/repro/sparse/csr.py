"""Compressed Sparse Row matrix with exposed raw arrays.

The container mirrors the storage the paper assumes (Saad, Sec. 3.4):

- ``val``    — nonzero values, length nnz, ``float64``;
- ``colid``  — column index of each nonzero, length nnz, ``int64``;
- ``rowidx`` — row pointers, length n+1, ``int64`` (``rowidx[i]`` is the
  offset of row ``i``'s first nonzero; ``rowidx[n] == nnz``).

Unlike :class:`scipy.sparse.csr_matrix`, nothing here re-canonicalizes
behind your back: ABFT correction mutates single entries in place, and
the fault injector flips raw bits in all three arrays, so the arrays the
user sees are exactly the bytes the kernels read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse

__all__ = ["CSRMatrix"]

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.flags.writeable = False


class CSRMatrix:
    """A square-or-rectangular CSR matrix backed by three NumPy arrays.

    Parameters
    ----------
    val, colid, rowidx:
        The CSR arrays.  ``val`` is coerced to ``float64`` and the index
        arrays to ``int64``; copies are made only if coercion requires it.
    shape:
        ``(nrows, ncols)``.  ``nrows`` must equal ``len(rowidx) - 1``.
    check:
        When true (default) the structure is validated on construction.
        Kernels that deliberately build *corrupted* matrices (fault
        injection tests) pass ``check=False``.
    """

    __slots__ = (
        "val",
        "colid",
        "rowidx",
        "shape",
        "_structure_clean",
        "_rows_nonempty",
        "_wild",
        "__weakref__",
    )

    def __init__(
        self,
        val: np.ndarray,
        colid: np.ndarray,
        rowidx: np.ndarray,
        shape: tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.val = np.ascontiguousarray(val, dtype=np.float64)
        self.colid = np.ascontiguousarray(colid, dtype=np.int64)
        self.rowidx = np.ascontiguousarray(rowidx, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._structure_clean = False
        self._rows_nonempty: "bool | None" = None
        #: Wild-set hint (see :attr:`rows_clean`); ``None`` = no hint.
        self._wild: "np.ndarray | None" = None
        if check:
            from repro.sparse.validate import validate_structure

            validate_structure(self)

    # ------------------------------------------------------------------
    # structural-cleanliness flag (perf fast path)
    # ------------------------------------------------------------------
    @property
    def structure_clean(self) -> bool:
        """Whether the index arrays are *known* in-range and monotone.

        ``False`` means "unknown", not "corrupted": kernels must then
        fall back to their defensive scans (the seed behaviour).  The
        flag is opt-in — nothing sets it implicitly, because the fault
        study corrupts ``colid``/``rowidx`` in place and a stale
        ``True`` would skip the wild-read emulation.  The resilience
        engine maintains it for its live matrix copy (set after one
        up-front structural check, cleared by the injector whenever an
        index array is struck).
        """
        return self._structure_clean

    def assume_clean_structure(self) -> None:
        """Declare the index arrays in-range and monotone.

        Caller contract: only after a successful structural check (see
        :func:`repro.sparse.validate.structure_arrays_clean`).  Anyone
        mutating ``colid``/``rowidx`` afterwards must call
        :meth:`mark_structure_dirty`.
        """
        self._structure_clean = True
        self._wild = None
        # A clean rowidx is immutable until the flag drops, so the
        # "every row nonempty" fact (the SpMxV fast path's remaining
        # O(n) guard) can be hoisted here too.
        self._rows_nonempty = (
            bool(np.all(self.rowidx[1:] > self.rowidx[:-1])) if self.nnz else False
        )

    def mark_structure_dirty(self) -> None:
        """Revoke :meth:`assume_clean_structure` (index array mutated),
        and the wild-set hint with it."""
        self._structure_clean = False
        self._rows_nonempty = None
        self._wild = None

    @property
    def rows_clean(self) -> bool:
        """Whether ``rowidx`` is known in-range and monotone: under the
        stamp, or while a wild-set hint is published.

        The hint (the private ``_wild``) is set with the stamp down, by
        the one owner able to certify it —
        :class:`repro.perf.SolveWorkspace`, for its live matrix.  It is
        an ascending int64 array of ``colid`` positions (the tiled
        kernel bisects it) and certifies two facts:
        ``rowidx`` is byte-equal to a structurally validated source (so
        ``_rows_nonempty`` holds as well), and every ``colid`` word
        *outside* the array is in range — a superset of the wild
        positions, never a subset.  :meth:`mark_structure_dirty` and
        :meth:`assume_clean_structure` clear it.
        """
        return self._structure_clean or self._wild is not None

    def wild_positions(self) -> np.ndarray:
        """Positions ``p`` whose ``colid[p]`` may lie outside ``[0, ncols)``,
        in ascending order.

        Empty under the stamp; the published hint when there is one;
        otherwise one scan (through the unsigned view, negative words
        compare above ``ncols`` too), a kernel tile at a time so its
        mask stays :data:`~repro.sparse.spmv.TILE` bytes long.
        """
        if self._structure_clean:
            return _NO_POSITIONS
        if self._wild is not None:
            return self._wild
        from repro.sparse.spmv import scan

        words, ncols = self.colid.view(np.uint64), self.ncols
        return scan(self.nnz, lambda p0, p1: words[p0:p1] >= ncols)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.val.shape[0])

    @property
    def density(self) -> float:
        """nnz / (nrows * ncols)."""
        return self.nnz / (self.nrows * self.ncols)

    @property
    def memory_words(self) -> int:
        """Number of 64-bit words in the raw representation.

        This is the ``M`` of the paper's fault model (λ_m = M · λ_word):
        every stored value, column index and row pointer is one
        corruptible word.
        """
        return self.val.size + self.colid.size + self.rowidx.size

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, mat: "scipy.sparse.spmatrix") -> "CSRMatrix":
        """Build from any scipy sparse matrix (converted to CSR)."""
        import scipy.sparse as sp

        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            csr.data.astype(np.float64),
            csr.indices.astype(np.int64),
            csr.indptr.astype(np.int64),
            csr.shape,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={dense.ndim}")
        nrows, _ = dense.shape
        rows, cols = np.nonzero(dense)
        val = dense[rows, cols]
        rowidx = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(rowidx, rows + 1, 1)
        np.cumsum(rowidx, out=rowidx)
        return cls(val, cols.astype(np.int64), rowidx, dense.shape)

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Build from coordinate triplets (duplicates are summed)."""
        import scipy.sparse as sp

        coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
        return cls.from_scipy(coo)

    def to_scipy(self) -> "scipy.sparse.csr_matrix":
        """Convert to a scipy CSR matrix (arrays are copied)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.val.copy(), self.colid.copy(), self.rowidx.copy()), shape=self.shape
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small matrices / tests only).

        Duplicate entries are summed, matching the row-loop semantics.
        """
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        np.add.at(out, (rows, self.colid), self.val)
        return out

    def copy(self) -> "CSRMatrix":
        """Deep copy of all three arrays (used by checkpointing).

        The :attr:`structure_clean` flag is inherited: the copy holds
        the same bytes, so whatever was known about the original's
        index arrays holds for the copy.
        """
        dup = CSRMatrix(
            self.val.copy(), self.colid.copy(), self.rowidx.copy(), self.shape, check=False
        )
        dup._structure_clean = self._structure_clean
        dup._rows_nonempty = self._rows_nonempty
        dup._wild = self._wild
        return dup

    # ------------------------------------------------------------------
    # row access and arithmetic
    # ------------------------------------------------------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return views ``(colids, values)`` of row ``i``'s nonzeros."""
        lo, hi = self.rowidx[i], self.rowidx[i + 1]
        return self.colid[lo:hi], self.val[lo:hi]

    def row_nnz(self) -> np.ndarray:
        """Vector of per-row nonzero counts."""
        return np.diff(self.rowidx)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (missing entries are zero;
        duplicates are summed).

        Vectorized — this sits on the Jacobi-preconditioner setup path
        of FT-PCG, where a pure-Python row loop would dominate setup
        for large matrices.
        """
        n = min(self.nrows, self.ncols)
        diag = np.zeros(n, dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        on_diag = (rows == self.colid) & (rows < n)
        np.add.at(diag, rows[on_diag], self.val[on_diag])
        return diag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Unprotected SpMxV ``y = A @ x`` (vectorized kernel)."""
        from repro.sparse.spmv import spmv

        return spmv(self, x)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def transpose(self) -> "CSRMatrix":
        """Return Aᵀ as a new CSR matrix."""
        return CSRMatrix.from_scipy(self.to_scipy().T)

    # ------------------------------------------------------------------
    # comparison / repr
    # ------------------------------------------------------------------
    def equals(self, other: "CSRMatrix", *, rtol: float = 0.0, atol: float = 0.0) -> bool:
        """Structural + numerical equality of the raw representation."""
        return (
            self.shape == other.shape
            and np.array_equal(self.rowidx, other.rowidx)
            and np.array_equal(self.colid, other.colid)
            and np.allclose(self.val, other.val, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )
