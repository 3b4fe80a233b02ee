"""Sparse matrix–vector product kernels.

Two implementations of ``y = A @ x``:

- :func:`spmv` — the production kernel.  It reduces ``val * x[colid]``
  per row with :func:`numpy.add.reduceat`, which is the standard
  vectorization of a CSR row loop (see the scientific-python optimizing
  guide: vectorize the loop, avoid copies, operate on contiguous data).
  A matrix of more than :data:`TILE` stored entries is walked in
  row-aligned tiles through one ``TILE``-long scratch, so no
  solve-time array but the matrix itself scales with nnz.  Row
  pointers struck out of order, which reduceat cannot take, are
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

The kernel choice (:mod:`repro.backends`) is routed by one test, at
the top of :func:`spmv_kernel`: a product may use SciPy's compiled
``csr_matvec`` only when the solve runs on ``scipy`` and the matrix
carries the :attr:`~repro.sparse.csr.CSRMatrix.structure_clean`
stamp.  Every other product takes the wild-read emulation below — the
single definition of the fault physics.

:func:`spmv` checks its input and silences the floating-point errors a
corrupted product raises, once per call.  :func:`spmv_kernel` is the
same product without either, for callers that own both: every product
of a protected solve goes there, under the one ``np.errstate`` its
solve enters (docs/DESIGN.md §4).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.backends import kernel_matvec
from repro.sparse.csr import CSRMatrix

__all__ = ["spmv", "spmv_reference", "TILE", "scratch_size"]

#: Stored entries per tile.  A product over more nonzeros walks
#: row-aligned tiles of at most this many entries through one
#: ``TILE``-long scratch, and checksum setup and the decoder accumulate
#: tile by tile too; every suite matrix at ``scale`` ≥ 32 is one tile.
TILE = 1 << 15


def scratch_size(nnz: int) -> int:
    """Elements of the products scratch a matrix of ``nnz`` stored
    entries needs (:func:`spmv`'s ``scratch``): one tile, or the whole
    matrix when it is smaller.  Every workspace request for
    ``"spmv.scratch"`` is sized here."""
    return min(nnz, TILE)


def spans(nnz: int) -> "Iterator[tuple[int, int]]":
    """``(p0, p1)`` position spans of at most :data:`TILE` entries that
    cover ``[0, nnz)`` in order: the tiles of a scan or a scatter that
    need not respect rows."""
    tile = TILE
    for p0 in range(0, nnz, tile):
        yield p0, min(p0 + tile, nnz)


def scan(nnz: int, hit: "Callable[[int, int], np.ndarray]") -> np.ndarray:
    """Ascending positions ``p < nnz`` that ``hit(p0, p1)`` marks, where
    ``hit`` returns the boolean mask of the span ``[p0, p1)``; one
    :func:`spans` span at a time, so no mask is longer than a tile."""
    found = [np.flatnonzero(hit(p0, p1)) + p0 for p0, p1 in spans(nnz)]
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def row_tiles(bounds: np.ndarray) -> "Iterator[tuple[int, int]]":
    """Row-aligned tiles of monotone row pointers ``bounds``, in order.

    Each is a pair ``(r0, r1)``: rows ``r0 .. r1 - 1`` hold the entries
    ``bounds[r0] .. bounds[r1]``, at most :data:`TILE` of them, and a
    tile is cut from its own start, never at a multiple of ``TILE``.  A
    row that alone holds more is a tile by itself, together with the
    empty rows after it, so the tile holding the last nonempty row
    always ends at row ``n``.
    """
    tile = TILE
    n = bounds.shape[0] - 1
    r0 = 0
    while r0 < n:
        r1 = int(bounds.searchsorted(bounds[r0] + tile, side="right")) - 1
        if r1 == r0:
            r1 = int(bounds.searchsorted(bounds[r0 + 1], side="right")) - 1
        yield r0, r1
        r0 = r1


def spmv(
    a: CSRMatrix,
    x: np.ndarray,
    *,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
    backend: "str | object | None" = None,
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
        :func:`scratch_size` ``(a.nnz)`` = ``min(nnz, TILE)`` elements
        (a longer one works too) for the per-nonzero products of one
        tile — the solver workspace passes one so the hot loop
        allocates nothing nnz-long.
    backend:
        The kernel: ``"reference"`` (or ``None``, the bit-identity
        default) or ``"scipy"``, by name or as the object of
        :func:`repro.backends.get_backend`.  ``"scipy"`` computes a
        ``structure_clean`` product with SciPy's ``csr_matvec`` and
        every other one here (:func:`spmv_kernel`), so the fault
        physics below is the same on both.

    Notes
    -----
    When a bit flip corrupts ``colid`` or ``rowidx``, a C kernel would
    read out-of-bounds memory.  To keep the simulation memory-safe while
    still producing a *wrong* answer for ABFT to catch, indices are
    taken modulo the valid range.  A flag in the result is unnecessary:
    ABFT's checksums are the detection mechanism under study.

    Every product reads ``x`` through one clipped gather per tile
    (:func:`_gather`), with the wrapped read rewritten only at the
    *wild* positions — none under the
    :attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp, the
    published wild-set hint of a workspace's live matrix, else one scan
    (:meth:`~repro.sparse.csr.CSRMatrix.wild_positions`).  When the row
    pointers are certified
    (:attr:`~repro.sparse.csr.CSRMatrix.rows_clean`) the row reduction
    skips the clipping and the monotone-segment guard: they probe
    exactly the invariants certified, so the result is bit-identical.

    The product walks row-aligned tiles (:func:`row_tiles`) of at most
    :data:`TILE` entries through ``scratch``; a matrix of at most
    ``TILE`` entries is one tile.  A row's reduceat value is its first
    entry plus NumPy's pairwise sum of the rest, so it depends on that
    row alone and the tiles change no float.  A row longer than a tile
    gets a temporary of its own length.  When ``out`` aliases ``x``
    and there is more than one tile, the tiles fill a temporary
    n-vector, copied into ``out`` once all of ``x`` is read.

    Struck row pointers are clipped into ``[0, nnz]``.  While the
    clipped pointers stay monotone, ``val · x`` is multiplied in place
    and reduced per row as on a clean matrix.  Otherwise every row is
    the dot of ``val[lo:hi]`` with the gathered ``x[lo:hi]``, computed
    by :func:`_row_dots` in batches of one length class, at most
    :data:`_CHUNK` gathered entries each.  Each row goes through the
    same ``DOUBLE_dot`` call as a per-row ``val[lo:hi] @ x[cols]``, so
    the result is that row loop's, bit for bit.  That path's
    temporaries are the clipped pointers and one chunk — except for a
    row longer than a chunk, which gathers its own entries.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
    matvec = kernel_matvec(backend)
    # Corrupted values can overflow to ±inf — that is the silent error
    # propagating, not a kernel bug; ABFT flags the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        return spmv_kernel(a, x, out, scratch, matvec)


def spmv_kernel(
    a: CSRMatrix,
    x: np.ndarray,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
    matvec: "Callable | None" = None,
) -> np.ndarray:
    """:func:`spmv` without its per-call guards, for callers that own them.

    ``x`` must be a ``float64`` array of shape ``(a.ncols,)``, and the
    caller sets the floating-point error state: a corrupted product
    overflows, and only :func:`spmv` silences that per call.  The
    resilience engine enters ``np.errstate(all="ignore")`` once per
    solve and issues every product of it here (docs/DESIGN.md §4).
    ``matvec`` is the solve's kernel as
    :func:`repro.backends.kernel_matvec` resolves it: ``None`` on
    ``reference``, SciPy's ``csr_matvec`` on ``scipy``.
    """
    if matvec is not None and a.structure_clean:
        return _compiled(a, x, out, matvec)
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
        dense = a._rows_nonempty  # hoisted with the certificate: no per-call guard
        bounds = rowptr
    else:
        # Struck row pointers read clipped into [0, nnz].  Row i+1 starts
        # where row i ends, so the segments suit reduceat exactly when
        # the clipped pointers are monotone; otherwise the rows are
        # dotted one length class at a time.
        dense = False
        bounds = np.clip(rowptr, 0, nnz)
        if not np.all(bounds[1:] >= bounds[:-1]):
            _unaliased(_row_dots, a, x, y, wild, bounds)
            return y
    if nnz > TILE:
        _unaliased(_tiles, a, x, y, wild, bounds, dense, scratch)
    else:  # one tile: all of x is gathered before y is written
        _tiles(a, x, y, wild, bounds, dense, scratch)
    return y


def _compiled(
    a: CSRMatrix, x: np.ndarray, out: "np.ndarray | None", matvec: Callable
) -> np.ndarray:
    """``y = A x`` through SciPy's ``csr_matvec`` on the raw arrays, for
    a matrix whose stamp certifies its index arrays: the compiled
    kernel reads wherever an index points.  Its summation order is not
    the reduction's above, so it agrees with it to rounding, not bit
    for bit."""
    x = np.ascontiguousarray(x)
    if out is None:
        y = np.zeros(a.nrows, dtype=np.float64)
    else:
        # The compiled kernel does no bounds checking: a short buffer
        # would be an out-of-bounds write, so it is refused here.
        if out.shape != (a.nrows,):
            raise ValueError(f"out must have shape ({a.nrows},), got {out.shape}")
        if np.may_share_memory(out, x):
            x = x.copy()  # zeroing y below must not clear the input
        y = out
        y[:] = 0.0  # csr_matvec accumulates into y
    if a.nnz:
        # Corrupted values can overflow to ±inf inside the compiled
        # kernel: the non-finite result is the silent error for ABFT.
        matvec(a.nrows, a.ncols, a.rowidx, a.colid, a.val, x, y)
    return y


def _gather(
    a: CSRMatrix,
    x: np.ndarray,
    wild: np.ndarray,
    dst: "np.ndarray | None",
    p0: int = 0,
    p1: "int | None" = None,
) -> np.ndarray:
    """``x[colid[p] mod ncols]`` for every stored position ``p0 <= p <
    p1`` (all of them by default), into ``dst`` when given.

    ``wild`` must hold every position of the span whose index is out of
    range (a superset is fine: an in-range index reads the same either
    way).  The gather clips instead of bounds-checking each element,
    and only the wild positions are rewritten with the wrapped read.
    """
    gathered = x.take(a.colid[p0:p1], out=dst, mode="clip")
    if wild.size:
        gathered[wild - p0] = x[np.mod(a.colid[wild], a.ncols)]
    return gathered


def _share(wild: np.ndarray, p0: int, p1: int) -> np.ndarray:
    """The positions of ascending ``wild`` that lie in ``[p0, p1)``."""
    if not wild.size:
        return wild
    lo, hi = wild.searchsorted((p0, p1))
    return wild[lo:hi]


def _products(
    a: CSRMatrix,
    x: np.ndarray,
    wild: np.ndarray,
    dst: "np.ndarray | None",
    p0: int = 0,
    p1: "int | None" = None,
) -> np.ndarray:
    """``val[p] · x[colid[p] mod ncols]`` over :func:`_gather`'s span,
    in place over its array."""
    products = _gather(a, x, wild, dst, p0, p1)
    np.multiply(a.val[p0:p1], products, out=products)
    return products


def _unaliased(fill: Callable, a: CSRMatrix, x: np.ndarray, y: np.ndarray, *args) -> None:
    """``fill(a, x, y, *args)``, for a fill that writes ``y`` before it
    has read all of ``x``: when the two share memory it fills a
    temporary n-vector, copied into ``y`` at the end."""
    if not np.may_share_memory(y, x):
        fill(a, x, y, *args)
        return
    tmp = np.empty_like(y)
    fill(a, x, tmp, *args)
    y[:] = tmp


def _tiles(
    a: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    wild: np.ndarray,
    bounds: np.ndarray,
    dense: bool,
    scratch: "np.ndarray | None",
) -> None:
    """The monotone-pointer product, one row-aligned tile
    (:func:`row_tiles`) at a time; a matrix of at most :data:`TILE`
    entries is one tile.

    ``bounds`` are monotone pointers into ``[0, nnz]``; ``dense``
    certifies every row nonempty, so each tile is one reduceat straight
    into ``y``.  ``wild`` is ascending (the scan's order, and the
    published hint's), so each tile finds its share by bisection.  The
    floats are the whole-array product's: a row's reduceat value
    depends on that row alone.  A last row that ends short of nnz (a
    shrunk final pointer) is re-summed with ``.sum()`` over its own
    span, whose order is not reduceat's, as before tiling.
    """
    nnz, n = a.nnz, a.nrows
    tiles = row_tiles(bounds) if nnz > TILE else ((0, n),)
    if scratch is None:
        scratch = np.empty(scratch_size(nnz))
    for r0, r1 in tiles:
        p0, p1 = int(bounds[r0]), int(bounds[r1])
        dst = scratch[: p1 - p0] if p1 - p0 <= scratch.shape[0] else None  # one long row
        products = _products(a, x, _share(wild, p0, p1), dst, p0, p1)
        if dense:
            starts = bounds[r0:r1] if p0 == 0 else bounds[r0:r1] - p0
            np.add.reduceat(products, starts, out=y[r0:r1])
            continue
        seg = bounds[r0 : r1 + 1]
        rows = np.flatnonzero(seg[1:] > seg[:-1])
        y[r0:r1] = 0.0
        if rows.size:
            starts = seg[rows] - p0
            y[r0 + rows] = np.add.reduceat(products, starts)
            if r1 == n and p1 < nnz:  # a shrunk final pointer
                y[r0 + rows[-1]] = products[starts[-1] :].sum()


#: Gathered entries per batched dot on the struck-pointer path: its
#: gathered operands (``val``, ``colid`` and ``x``) stay at 64 KiB each,
#: whatever ``nnz``.
_CHUNK = 1 << 13
#: Rows classed by length together: the per-block index arrays stay at
#: 32 KiB each, so the clipped pointers are the one n-length temporary.
_ROW_BLOCK = 1 << 12


def _row_dots(
    a: CSRMatrix, x: np.ndarray, y: np.ndarray, wild: np.ndarray, bounds: np.ndarray
) -> None:
    """``y[i] = val[lo:hi] @ x[colid[lo:hi] mod ncols]`` with ``lo, hi =
    bounds[i:i+2]`` (0 where ``hi <= lo``), for row pointers reduceat
    cannot take.

    Rows are classed by length, and each class is dotted in chunks of
    at most :data:`_CHUNK` entries by one ``np.matmul`` of
    ``(k, 1, L) @ (k, L, 1)`` operands: ``val`` and ``colid`` read
    through length-``L`` windows, ``x`` gathered per chunk (its
    ``colid`` words wrapped modulo ``ncols`` when ``wild`` is not
    empty).  Matmul hands each ``1 × L`` by ``L × 1`` product to the
    same ``DOUBLE_dot`` (``cblas_ddot`` over unit strides) that a
    per-row ``val[lo:hi] @ g[lo:hi]`` reaches, so every row's float is
    the one a row loop computes.  A row that fills a chunk alone reads
    its ``val`` window as a view and gathers only its own entries
    (:func:`_gather`: clipped, its share of the ascending ``wild``
    rewritten), the one temporary that can reach O(nnz).  That happens
    after most high-bit ``rowidx`` strikes: a pointer clipped to 0 or
    nnz makes one row span a large part of the matrix.
    """
    val, colid, ncols = a.val, a.colid, a.ncols
    y[:] = 0.0
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
            vw, cw = _windows(val, length), _windows(colid, length)
            per = max(_CHUNK // length, 1)
            for k0 in range(c0, c1, per):
                r = rows[k0 : min(k0 + per, c1)]
                if r.size > 1:  # a gather of the rows' windows
                    at = lo[r]
                    cols = cw[at]
                    if wild.size:
                        np.mod(cols, ncols, out=cols)
                    g = x.take(cols, mode="clip")  # every index in range
                else:  # one row: a window slice (a view) and its own gather
                    p0 = int(lo[r[0]])
                    at = slice(p0, p0 + 1)
                    g = _gather(a, x, _share(wild, p0, p0 + length), None, p0, p0 + length)
                    g = g[None, :]
                y[b0 + r] = np.matmul(vw[at][:, None, :], g[:, :, None])[:, 0, 0]


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
