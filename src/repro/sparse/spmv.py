"""Sparse matrix–vector product kernels.

Two implementations of ``y = A @ x``:

- :func:`spmv` — the production kernel.  It reduces ``val * x[colid]``
  per row with :func:`numpy.add.reduceat`, which is the standard
  vectorization of a CSR row loop (see the scientific-python optimizing
  guide: vectorize the loop, avoid copies, operate on contiguous data).
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
        ``a.nrows``, must not alias ``x``).  Overwritten and returned.
    scratch:
        Optional preallocated ``float64`` buffer of at least ``a.nnz``
        elements for the per-nonzero products — the solver workspace
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

    Every product runs one routine (:func:`_products`): a clipping
    gather, the multiply in place, and the wrapped read rewritten only
    at the *wild* positions — none under the
    :attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp, the
    published wild-set hint of a workspace's live matrix, else one scan
    (:meth:`~repro.sparse.csr.CSRMatrix.wild_positions`).  When the row
    pointers are certified (:attr:`~repro.sparse.csr.CSRMatrix.rows_clean`)
    the row reduction skips the clipping and the monotone-segment
    guard: they probe exactly the invariants certified, so the result
    is bit-identical.
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
    products = _products(a, x, wild, scratch)
    rowptr = a.rowidx
    if a.rows_clean:
        starts = rowptr[:-1]
        if a._rows_nonempty:  # hoisted with the certificate: no per-call guard
            np.add.reduceat(products, starts, out=y)
            return y
        y[:] = 0.0
        nonempty = rowptr[1:] > starts
        if nonempty.any():
            y[nonempty] = np.add.reduceat(products, starts[nonempty])
        return y
    y[:] = 0.0

    starts = np.clip(rowptr[:-1], 0, nnz)
    ends = np.clip(rowptr[1:], 0, nnz)
    # reduceat needs monotone segments; a corrupted rowidx can violate
    # that, in which case we fall back to the (safe) reference loop.
    if np.all(starts[1:] >= starts[:-1]) and np.all(ends >= starts):
        nonempty = ends > starts
        if nonempty.any():
            seg = np.add.reduceat(products, starts[nonempty])
            # reduceat sums from each start to the next start; trim the
            # tail of each segment that spills past its row's end.
            ends_ne = ends[nonempty]
            starts_ne = starts[nonempty]
            next_starts = np.empty_like(starts_ne)
            next_starts[:-1] = starts_ne[1:]
            next_starts[-1] = nnz
            overshoot = next_starts - ends_ne
            if np.any(overshoot > 0):
                # rare (only for corrupted rowidx); correct per segment
                idx = np.nonzero(overshoot > 0)[0]
                for k in idx:
                    seg[k] = products[starts_ne[k] : ends_ne[k]].sum()
            y[nonempty] = seg
        return y
    looped = _spmv_loop(a.val, a.colid, rowptr, x, n, nnz, wild.size > 0)
    if out is None:
        return looped
    out[:] = looped
    return out


def _products(
    a: CSRMatrix,
    x: np.ndarray,
    wild: np.ndarray,
    scratch: "np.ndarray | None",
) -> np.ndarray:
    """``val[p] · x[colid[p] mod ncols]`` for every stored nonzero.

    ``wild`` must hold every position whose index is out of range (a
    superset is fine: an in-range index reads the same either way).
    The gather clips instead of bounds-checking each element, and only
    the wild positions are rewritten with the wrapped read — so one
    nnz-length array (``scratch[:nnz]`` when given) is all it touches.
    """
    dst = None if scratch is None else scratch[: a.nnz]
    # Corrupted values can overflow to ±inf — that is the silent error
    # propagating, not a kernel bug; ABFT flags the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.take(x, a.colid, out=dst, mode="clip")
        np.multiply(a.val, products, out=products)
        if wild.size:
            products[wild] = a.val[wild] * x[np.mod(a.colid[wild], a.ncols)]
    return products


def _spmv_loop(
    val: np.ndarray,
    colid: np.ndarray,
    rowidx: np.ndarray,
    x: np.ndarray,
    n: int,
    nnz: int,
    wrap: bool,
) -> np.ndarray:
    """Row-loop kernel tolerant of corrupted row pointers (``wrap``:
    some column index is out of range and reads modulo ``len(x)``)."""
    y = np.zeros(n, dtype=np.float64)
    # One vectorized clip + tolist instead of two np.clip scalar
    # dispatches per row; the per-row dot products are unchanged.
    bounds = np.clip(rowidx, 0, nnz).tolist()
    for i in range(n):
        lo = bounds[i]
        hi = bounds[i + 1]
        if hi > lo:
            cols = colid[lo:hi]
            if wrap:
                cols = np.mod(cols, x.shape[0])
            y[i] = float(val[lo:hi] @ x[cols])
    return y


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
