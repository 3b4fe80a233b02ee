"""Sparse matrix–vector product kernels.

Two implementations of ``y = A @ x``:

- :func:`spmv` — the production kernel.  It reduces ``val * x[colid]``
  per row with :func:`numpy.add.reduceat`, which is the standard
  vectorization of a CSR row loop (see the scientific-python optimizing
  guide: vectorize the loop, avoid copies, operate on contiguous data).
  Row pointers struck out of order, which reduceat cannot take, are
  dotted row by row in batches of one length class — the floats of a
  per-row ``@`` loop, without the Python loop.
- :func:`spmv_reference` — a pure-Python row loop that mirrors the
  paper's Algorithm 2 line-by-line.  It is the kernel the ABFT proofs
  reason about and is kept as the oracle the vectorized kernel is
  cross-checked against in the tests.

Both kernels read *exactly* the bytes stored in the CSR arrays: no
canonicalization, no duplicate folding.  That property is what lets the
fault-injection study corrupt ``Val``/``Colid``/``Rowidx`` and observe
the corruption flow into ``y``.

:func:`spmv` is also the dispatch point of the pluggable kernel axis:
``backend=`` hands the product to a registered
:class:`repro.backends.KernelBackend` (e.g. ``"scipy"``), which must
route guarded (non-``structure_clean``) matrices back here — the
wild-read emulation below is the single definition of the fault
physics.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["spmv", "spmv_reference"]


def spmv(
    a: CSRMatrix,
    x: np.ndarray,
    *,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
    backend: "object | None" = None,
) -> np.ndarray:
    """Vectorized CSR SpMxV.

    Parameters
    ----------
    a:
        The matrix.  May be structurally corrupted: out-of-range column
        indices are taken modulo ``a.ncols`` (a memory-safe wild read,
        matching the reference kernel) and corrupted row pointers are
        clipped into ``[0, nnz]`` — see Notes.
    x:
        Dense input vector of length ``a.ncols``.
    out:
        Optional preallocated output vector (``float64``, length
        ``a.nrows``; it may alias ``x``, which is read first).
        Overwritten and returned.
    scratch:
        Optional preallocated contiguous ``float64`` buffer of at least
        ``a.nnz`` elements for the per-nonzero products — the solver workspace
        passes one so the hot loop allocates nothing.
    backend:
        Optional kernel backend — a registered name (``"scipy"``) or
        a :class:`repro.backends.KernelBackend` instance.  ``None`` / ``"reference"`` runs this function's own
        kernel (the bit-identity default); any other backend receives
        the call verbatim and is contractually required to route
        non-``structure_clean`` matrices back here, so the fault
        physics below is backend-invariant.

    Notes
    -----
    When a bit flip corrupts ``colid`` or ``rowidx``, a C kernel would
    read out-of-bounds memory.  To keep the simulation memory-safe while
    still producing a *wrong* answer for ABFT to catch, indices are
    taken modulo the valid range.  A flag in the result is unnecessary:
    ABFT's checksums are the detection mechanism under study.

    Every product reads ``x`` through one gather (:func:`_gather`):
    clipped, with the wrapped read rewritten only at the *wild*
    positions — none under the
    :attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp, the
    published wild-set hint of a workspace's live matrix, else one scan
    (:meth:`~repro.sparse.csr.CSRMatrix.wild_positions`).  When the row
    pointers are certified (:attr:`~repro.sparse.csr.CSRMatrix.rows_clean`)
    the row reduction skips the clipping and the monotone-segment
    guard: they probe exactly the invariants certified, so the result
    is bit-identical.

    Struck row pointers are clipped into ``[0, nnz]``.  While the
    clipped pointers stay monotone, ``val · x`` is multiplied in place
    and reduced per row as on a clean matrix.  Otherwise every row is
    the dot of ``val[lo:hi]`` with the gathered ``x[lo:hi]``, computed
    by :func:`_row_dots` in batches of one length class, at most
    :data:`_CHUNK` gathered entries each.  Each row goes through the
    same ``DOUBLE_dot`` call as a per-row ``val[lo:hi] @ x[cols]``, so
    the result is that row loop's, bit for bit.  With ``scratch`` the
    path allocates nothing nnz-long: its temporaries are the clipped
    pointers and one chunk.
    """
    if backend is not None:
        if type(backend) is not str:
            # Hot path: the engine resolves names once and hands the
            # instance down, so per-product calls skip the registry
            # (the stock reference backend resolves to None upstream;
            # a reference *instance* passed here just round-trips).
            return backend.spmv(a, x, out=out, scratch=scratch)
        from repro.backends import resolve_backend

        be = resolve_backend(backend)
        if be is not None:
            return be.spmv(a, x, out=out, scratch=scratch)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
    n = a.nrows
    nnz = a.nnz
    if out is None:
        y = np.zeros(n, dtype=np.float64) if nnz == 0 else np.empty(n, dtype=np.float64)
    else:
        y = out
    if nnz == 0:
        if out is not None:
            y[:] = 0.0
        return y

    wild = a.wild_positions()
    rowptr = a.rowidx
    if a.rows_clean:
        if a._rows_nonempty:  # hoisted with the certificate: no per-call guard
            np.add.reduceat(_products(a, x, wild, scratch), rowptr[:-1], out=y)
            return y
        bounds = rowptr
    else:
        # Struck row pointers read clipped into [0, nnz].  Row i+1 starts
        # where row i ends, so the segments suit reduceat exactly when
        # the clipped pointers are monotone; otherwise the rows are
        # dotted one length class at a time.
        bounds = np.clip(rowptr, 0, nnz)
        if not np.all(bounds[1:] >= bounds[:-1]):
            _row_dots(a.val, _gather(a, x, wild, scratch), bounds, y)
            return y
    products = _products(a, x, wild, scratch)
    y[:] = 0.0
    rows = np.flatnonzero(bounds[1:] > bounds[:-1])
    if rows.size:
        starts = bounds[rows]
        seg = np.add.reduceat(products, starts)
        # Each segment runs to the next one's start, which is its row's
        # end — except the last, which reduceat carries on to nnz: a
        # shrunk final pointer re-sums it over the row's own span.
        end = bounds[rows[-1] + 1]
        if end < nnz:
            seg[-1] = products[starts[-1] : end].sum()
        y[rows] = seg
    return y


def _gather(
    a: CSRMatrix,
    x: np.ndarray,
    wild: np.ndarray,
    scratch: "np.ndarray | None",
) -> np.ndarray:
    """``x[colid[p] mod ncols]`` for every stored nonzero.

    ``wild`` must hold every position whose index is out of range (a
    superset is fine: an in-range index reads the same either way).
    The gather clips instead of bounds-checking each element, and only
    the wild positions are rewritten with the wrapped read — so one
    nnz-length array (``scratch[:nnz]`` when given) is all it touches.
    """
    dst = None if scratch is None else scratch[: a.nnz]
    gathered = np.take(x, a.colid, out=dst, mode="clip")
    if wild.size:
        gathered[wild] = x[np.mod(a.colid[wild], a.ncols)]
    return gathered


def _products(
    a: CSRMatrix,
    x: np.ndarray,
    wild: np.ndarray,
    scratch: "np.ndarray | None",
) -> np.ndarray:
    """``val[p] · x[colid[p] mod ncols]`` for every stored nonzero, in
    place over :func:`_gather`'s array."""
    products = _gather(a, x, wild, scratch)
    # Corrupted values can overflow to ±inf — that is the silent error
    # propagating, not a kernel bug; ABFT flags the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a.val, products, out=products)
    return products


#: Gathered entries per batched dot on the struck-pointer path: its two
#: gathered operands stay at 64 KiB each, whatever ``nnz``.
_CHUNK = 1 << 13
#: Rows classed by length together: the per-block index arrays stay at
#: 32 KiB each, so the clipped pointers are the one n-length temporary.
_ROW_BLOCK = 1 << 12


def _row_dots(val: np.ndarray, g: np.ndarray, bounds: np.ndarray, y: np.ndarray) -> None:
    """``y[i] = val[lo:hi] @ g[lo:hi]`` with ``lo, hi = bounds[i:i+2]``
    (0 where ``hi <= lo``), for row pointers reduceat cannot take.

    Rows are classed by length, and each class is dotted in chunks of
    at most :data:`_CHUNK` entries by one ``np.matmul`` of
    ``(k, 1, L) @ (k, L, 1)`` operands gathered from length-``L``
    windows.  Matmul hands each ``1 × L`` by ``L × 1`` product to the
    same ``DOUBLE_dot`` (``cblas_ddot`` over unit strides) that a
    per-row ``val[lo:hi] @ g[lo:hi]`` reaches, so every row's float is
    the one a row loop computes.  A row that fills a chunk alone is
    dotted through its window view, gathering nothing.
    """
    y[:] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, y.shape[0], _ROW_BLOCK):
            lo = bounds[b0 : b0 + _ROW_BLOCK + 1]
            lens = lo[1:] - lo[:-1]
            rows = np.flatnonzero(lens > 0)
            rows = rows[np.argsort(lens[rows])]
            lens = lens[rows]
            # where the sorted lengths change, both ends included (lens > 0);
            # none at all for a block whose rows all read nothing
            edges = np.flatnonzero(np.diff(lens, prepend=0, append=0)).tolist()
            for c0, c1 in zip(edges[:-1], edges[1:]):  # one length class each
                length = int(lens[c0])
                vw, gw = _windows(val, length), _windows(g, length)
                per = max(_CHUNK // length, 1)
                for k0 in range(c0, c1, per):
                    r = rows[k0 : min(k0 + per, c1)]
                    # one row: a window slice (a view); more: a gather
                    at = lo[r] if r.size > 1 else slice(lo[r[0]], lo[r[0]] + 1)
                    y[b0 + r] = np.matmul(vw[at][:, None, :], gw[at][:, :, None])[:, 0, 0]


def _windows(a: np.ndarray, length: int) -> np.ndarray:
    """View of contiguous 1-D ``a`` whose row ``p`` is ``a[p : p + length]``."""
    return np.ndarray((a.shape[0] - length + 1, length), a.dtype, a, 0, a.strides * 2)


def spmv_reference(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Pure-Python row-loop SpMxV mirroring Algorithm 2's inner loop.

    Used as the oracle in tests and by the line-by-line protected
    kernel; orders of magnitude slower than :func:`spmv`, so only call
    it on small matrices.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
    n = a.nrows
    nnz = a.nnz
    y = np.zeros(n, dtype=np.float64)
    for i in range(n):
        yi = 0.0
        lo = int(np.clip(a.rowidx[i], 0, nnz))
        hi = int(np.clip(a.rowidx[i + 1], 0, nnz))
        for j in range(lo, hi):
            ind = int(a.colid[j]) % a.ncols
            yi += a.val[j] * x[ind]
        y[i] = yi
    return y
