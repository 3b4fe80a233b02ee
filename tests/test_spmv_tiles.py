"""Row-aligned tiles change no float: the tiled kernel, checksum setup
and decoder against their whole-array forms, bit for bit.

A product over more than ``TILE`` stored entries walks row-aligned tiles
through one ``TILE``-long scratch; ``column_sums``, ``norm1`` and the
decoder's ramp row scatter tile by tile.  The whole-array forms they
replace are kept verbatim below as oracles, and ``TILE`` is patched down
to a few dozen entries so small generated matrices span many tiles.
Pinned here:

1. the product — stamped, hinted (wild positions on tile edges
   included), scanned and stale-superset; rows longer than a tile and
   empty rows; struck ``rowidx`` (``rowidx[0]``, negative words, ±2⁶²,
   shrunk final pointers, out-of-order pointers); ``out`` aliasing
   ``x``; non-finite ``x``; a scratch of exactly one tile and a longer
   one;
2. ``column_sums``, ``norm1`` and the decoder's column checksums;
3. the tile cut: from each tile's own start, at most ``TILE`` entries
   unless one row alone holds more.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.abft.checksums import compute_checksums
from repro.abft.weights import weight_matrix
from repro.abft.correction import _current_column_checksums, _row_counts
from repro.faults.bitflip import flip_bits_array
from repro.perf import SolveWorkspace
from repro.sparse import CSRMatrix
from repro.sparse.norms import column_sums, norm1
from repro.sparse.spmv import row_tiles, scratch_size, spmv

KERNEL = sys.modules["repro.sparse.spmv"]  # the package attribute is the function


@contextlib.contextmanager
def tile_of(tile: int):
    """Every tiled routine reads the kernel module's ``TILE`` per call."""
    old = KERNEL.TILE
    KERNEL.TILE = tile
    try:
        yield
    finally:
        KERNEL.TILE = old


# ----------------------------------------------------------------------
# the whole-array forms, verbatim (the oracles)
# ----------------------------------------------------------------------
_CHUNK = 1 << 13
_ROW_BLOCK = 1 << 12


def whole_array_spmv(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """The reference product before tiling: one nnz-long products array,
    reduceat, the overshoot ``.sum()`` and the batched row dots over one
    whole-array gather."""
    n = a.nrows
    nnz = a.nnz
    y = np.zeros(n, dtype=np.float64)
    if nnz == 0:
        return y

    wild = np.flatnonzero(a.colid.view(np.uint64) >= a.ncols)
    rowptr = a.rowidx
    if a.rows_clean:
        if a._rows_nonempty:
            np.add.reduceat(_whole_products(a, x, wild), rowptr[:-1], out=y)
            return y
        bounds = rowptr
    else:
        bounds = np.clip(rowptr, 0, nnz)
        if not np.all(bounds[1:] >= bounds[:-1]):
            _whole_row_dots(a.val, _whole_gather(a, x, wild), bounds, y)
            return y
    products = _whole_products(a, x, wild)
    rows = np.flatnonzero(bounds[1:] > bounds[:-1])
    if rows.size:
        starts = bounds[rows]
        seg = np.add.reduceat(products, starts)
        end = bounds[rows[-1] + 1]
        if end < nnz:
            seg[-1] = products[starts[-1] : end].sum()
        y[rows] = seg
    return y


def _whole_gather(a, x, wild):
    gathered = x.take(a.colid, mode="clip")
    if wild.size:
        gathered[wild] = x[np.mod(a.colid[wild], a.ncols)]
    return gathered


def _whole_products(a, x, wild):
    products = _whole_gather(a, x, wild)
    np.multiply(a.val, products, out=products)
    return products


def _whole_row_dots(val, g, bounds, y):
    y[:] = 0.0
    for b0 in range(0, y.shape[0], _ROW_BLOCK):
        lo = bounds[b0 : b0 + _ROW_BLOCK + 1]
        lens = lo[1:] - lo[:-1]
        rows = np.flatnonzero(lens > 0)
        rows = rows[np.argsort(lens[rows])]
        lens = lens[rows]
        edges = np.flatnonzero(np.diff(lens, prepend=0, append=0)).tolist()
        for c0, c1 in zip(edges[:-1], edges[1:]):
            length = int(lens[c0])
            vw, gw = _windows(val, length), _windows(g, length)
            per = max(_CHUNK // length, 1)
            for k0 in range(c0, c1, per):
                r = rows[k0 : min(k0 + per, c1)]
                at = lo[r] if r.size > 1 else slice(lo[r[0]], lo[r[0]] + 1)
                y[b0 + r] = np.matmul(vw[at][:, None, :], gw[at][:, :, None])[:, 0, 0]


def _windows(a, length):
    return np.ndarray((a.shape[0] - length + 1, length), a.dtype, a, 0, a.strides * 2)


def whole_array_column_sums(a: CSRMatrix, weights=None) -> np.ndarray:
    n_rows, n_cols = a.shape
    out = np.zeros(n_cols, dtype=np.float64)
    if a.nnz == 0:
        return out
    if weights is None:
        contrib = a.val
    else:
        contrib = np.repeat(np.asarray(weights, dtype=np.float64), np.diff(a.rowidx))
        np.multiply(a.val, contrib, out=contrib)
    np.add.at(out, a.colid, contrib)
    return out


def whole_array_norm1(a: CSRMatrix) -> float:
    sums = np.zeros(a.ncols, dtype=np.float64)
    np.add.at(sums, a.colid, np.abs(a.val))
    return float(sums.max(initial=0.0))


def whole_array_column_checksums(a: CSRMatrix, cks) -> np.ndarray:
    n_cols = a.ncols
    out = np.zeros((cks.nchecks, n_cols), dtype=np.float64)
    counts = _row_counts(a)
    wild = np.flatnonzero(a.colid.view(np.uint64) >= n_cols)
    m = min(int(counts.sum()), a.nnz)
    cols, val = a.colid[:m], a.val[:m]
    held = a.colid[wild]
    if wild.size:
        a.colid[wild] = np.mod(held, n_cols)
    try:
        out[0] = np.bincount(cols, weights=val, minlength=n_cols)
        for l in range(1, cks.nchecks):
            w = np.repeat(cks.weights[l], counts)[:m]
            np.multiply(val, w, out=w)
            out[l] = np.bincount(cols, weights=w, minlength=n_cols)
    finally:
        if wild.size:
            a.colid[wild] = held
    return out


# ----------------------------------------------------------------------
# generated matrices spanning many small tiles
# ----------------------------------------------------------------------
SPECIAL_WORDS = [-1, -7, 2**62, -(2**62), 2**63 - 1, -(2**63)]


def _bytes(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _bare(a: CSRMatrix) -> CSRMatrix:
    """Same bytes (own copies), no stamp and no hint: the scan path."""
    return CSRMatrix(a.val.copy(), a.colid.copy(), a.rowidx.copy(), a.shape, check=False)


def _source(draw, rng) -> CSRMatrix:
    """A square matrix whose rows are drawn 0 to 12 entries long, with
    at most one row a few tiles long; values over 16 decades, so a
    changed summation order shows."""
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=40))
    if draw(st.booleans()):
        lengths[draw(st.integers(0, len(lengths) - 1))] = draw(st.integers(40, 150))
    n = len(lengths)
    rowidx = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(rowidx[-1])
    val = rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 8, size=nnz)
    colid = rng.integers(0, n, size=nnz)
    return CSRMatrix(val, colid, rowidx, (n, n), check=False)


@st.composite
def tiled_cases(draw):
    """``(tile, src, ws, live, x)``: a source bound to a workspace, its
    live copy after a drawn sequence of index strikes noted in the
    ledger — ``colid`` words at the tile edges among them — and repairs
    back to the source word, and an input vector."""
    tile = draw(st.sampled_from([5, 8, 13, 24, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = _source(draw, rng)
    ws = SolveWorkspace()
    live = ws.acquire_live(src)
    n, nnz = src.nrows, src.nnz
    with tile_of(tile):
        edges = sorted({p for r0, r1 in row_tiles(src.rowidx)
                        for p in (int(src.rowidx[r0]), int(src.rowidx[r1]) - 1)})
    edges = [p for p in edges if 0 <= p < nnz]
    word = st.one_of(
        st.sampled_from(SPECIAL_WORDS),
        st.integers(-3 * n - 3, 3 * n + 3),
        st.integers(0, 63).map(lambda bit: ("flip", bit)),
    )
    where = st.one_of(st.integers(0, 10**6), st.sampled_from(edges or [0]).map(lambda p: ("at", p)))
    events = draw(st.lists(
        st.tuples(st.sampled_from(["colid", "colid", "colid", "rowidx", "repair"]), where, word),
        max_size=6,
    ))
    for target, pos, value in events:
        name = target if target != "repair" else ("colid" if rng.integers(2) else "rowidx")
        arr = getattr(live, name)
        if not arr.size:
            continue
        pos = pos[1] if isinstance(pos, tuple) else pos
        pos %= arr.size
        if target == "repair":
            arr[pos] = getattr(src, name)[pos]
        elif isinstance(value, tuple):  # the injector's single-bit flip
            flip_bits_array(arr, np.array([pos]), np.array([value[1]]))
        else:
            arr[pos] = value
        ws.note_matrix_mutation(name, pos)
    x = rng.normal(size=n)
    if draw(st.booleans()):
        x[rng.integers(n)] = draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e300]))
    return tile, src, ws, live, x


def _variants(live: CSRMatrix) -> "list[tuple[str, CSRMatrix]]":
    """The live matrix as published (stamp, hint or neither), the same
    bytes without a hint, and — with a hint — a stale superset of it."""
    out = [("published", live), ("no hint", _bare(live))]
    if live._wild is not None and live.nnz:
        stale = live.copy()
        extra = np.random.default_rng(0).integers(0, live.nnz, size=3)
        stale._wild = np.union1d(live._wild, extra).astype(np.int64)
        out.append(("stale superset", stale))
    return out


SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(tiled_cases())
def test_tiled_product_equals_the_whole_array_product(case):
    tile, src, ws, live, x = case
    with np.errstate(all="ignore"):
        want = _bytes(whole_array_spmv(_bare(live), x))
        with tile_of(tile):
            for label, a in _variants(live):
                assert _bytes(spmv(a, x)) == want, label
                for size in (scratch_size(a.nnz), a.nnz + 3):
                    out = np.full(a.nrows, -1.0)
                    got = spmv(a, x, out=out, scratch=np.full(max(size, 1), 7.0))
                    assert got is out and _bytes(got) == want, (label, size)
                xx = x.copy()  # out aliasing x: all of x is read first
                assert _bytes(spmv(a, xx, out=xx)) == want, label


@SETTINGS
@given(tiled_cases())
def test_tiled_decoder_checksums_equal_the_whole_array_form(case):
    tile, src, ws, live, x = case
    cks = compute_checksums(src, nchecks=2)
    with np.errstate(all="ignore"):
        want = _bytes(whole_array_column_checksums(_bare(live), cks))
        with tile_of(tile):
            for label, a in _variants(live):
                before = _bytes(a.colid)
                assert _bytes(_current_column_checksums(a, cks)) == want, label
                got = _current_column_checksums(a, cks, _row_counts(a), a.wild_positions())
                assert _bytes(got) == want, label
                assert _bytes(a.colid) == before, label


@SETTINGS
@given(tiled_cases())
def test_tiled_setup_sums_equal_the_whole_array_forms(case):
    tile, src, ws, live, x = case
    w = np.random.default_rng(src.nnz).normal(size=src.nrows) * 1e3
    want = [_bytes(whole_array_column_sums(src)), _bytes(whole_array_column_sums(src, w)),
            whole_array_norm1(src)]
    with tile_of(tile):
        got = [_bytes(column_sums(src)), _bytes(column_sums(src, w)), norm1(src)]
        assert got[:2] == want[:2]
        assert _bytes(np.float64(got[2])) == _bytes(np.float64(want[2]))
        # the checksums built on them
        ramp = weight_matrix(src.nrows, 2)[1]
        assert _bytes(compute_checksums(src).column_checksums) == _bytes(
            np.stack([whole_array_column_sums(src), whole_array_column_sums(src, ramp)]))


def _rows_of(lengths, seed: int = 0) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    rowidx = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(rowidx[-1])
    val = rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 8, size=nnz)
    colid = rng.integers(0, len(lengths), size=nnz)
    return CSRMatrix(val, colid, rowidx, (len(lengths), len(lengths)), check=False)


#: Directed strikes on a matrix of tile 12: (lengths, {pointer: word}, {position: colid word}).
DIRECTED = {
    "shrunk final pointer": ([5] * 30, {30: 147}, {}),
    "shrunk final pointer inside a long last row": ([3, 3, 50], {3: 46}, {}),
    "shrunk long last row, then empty rows": ([3, 3, 50, 0, 0], {3: 46, 4: 46, 5: 46}, {}),
    "long row, then empty rows": ([4, 30, 0, 0, 2, 0], {}, {}),
    "rowidx[0] raised": ([5] * 30, {0: 3}, {}),
    "rowidx[0] negative": ([5] * 30, {0: -(2**62)}, {}),
    "final pointer past nnz": ([5] * 30, {30: 2**62}, {}),
    "out-of-order, one row to nnz": ([5] * 30, {2: 2**62}, {}),
    "out-of-order, a row re-read from near the start": ([5] * 30, {5: 3}, {}),
    "out-of-order, one long row over wild words": (
        [5] * 30, {2: 2**62}, {4: 2**62, 40: -1, 77: -(2**62), 149: 30}),
    "wild words on the tile edges": ([4] * 30, {}, {0: 2**62, 11: -1, 12: -(2**62), 119: 31}),
}


@pytest.mark.parametrize("case", list(DIRECTED))
def test_directed_strikes_on_small_tiles(case):
    lengths, pointers, words = DIRECTED[case]
    src = _rows_of(lengths)
    cks = compute_checksums(src, nchecks=2)
    a = _bare(src)
    for i, word in pointers.items():
        a.rowidx[i] = word
    for p, word in words.items():
        a.colid[p] = word
    x = np.random.default_rng(1).normal(size=a.ncols)
    with np.errstate(all="ignore"):
        want = _bytes(whole_array_spmv(_bare(a), x))
        want_cks = _bytes(whole_array_column_checksums(_bare(a), cks))
        with tile_of(12):
            assert _bytes(spmv(a, x, scratch=np.empty(12))) == want
            xx = x.copy()
            assert _bytes(spmv(a, xx, out=xx)) == want
            assert _bytes(_current_column_checksums(a, cks)) == want_cks


@SETTINGS
@given(st.lists(st.integers(0, 90), min_size=1, max_size=60), st.sampled_from([5, 16, 40]))
def test_tiles_are_cut_from_their_own_start(lengths, tile):
    rowidx = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    with tile_of(tile):
        tiles = list(row_tiles(rowidx))
    n = len(lengths)
    assert [r0 for r0, _ in tiles] == [0] + [r1 for _, r1 in tiles[:-1]]
    assert tiles[-1][1] == n
    for k, (r0, r1) in enumerate(tiles):
        held = int(rowidx[r1] - rowidx[r0])
        if held > tile:  # one row alone holds more, with the empty rows after it
            assert lengths[r0] > tile and not any(lengths[r0 + 1 : r1])
            assert r1 == n or lengths[r1] > 0
        elif r1 < n:  # the next row would not fit
            assert rowidx[r1 + 1] - rowidx[r0] > tile


def test_paper_scale_tiles_keep_every_suite_matrix_at_scale_32_whole():
    """Every suite matrix at ``scale`` ≥ 32 is one tile, so the ledger's
    small workloads walk one tile a product (uid 1848, the largest, has
    nnz 32 625)."""
    from repro.sim.matrices import size_facts, suite_specs

    largest = max((size_facts(s.uid, 32).nnz, s.uid) for s in suite_specs())
    assert largest == (32625, 1848) and largest[0] <= KERNEL.TILE
