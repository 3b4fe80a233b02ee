"""Struck index arrays at clean-kernel cost: same floats, less work.

Every reference SpMxV runs one products routine — a clipping gather,
the multiply in place, and the wrapped read ``val[p]·x[colid[p] mod n]``
rewritten only at the *wild* positions.  The wild set comes from what
is already known: none under the ``structure_clean`` stamp, the
``colid`` taint set a :class:`~repro.perf.SolveWorkspace` publishes on
its live matrix (the wild-set hint), else one scan.  The decoder's
column checksums and ``column_sums`` expand the weights per row instead
of gathering through an int64 row pattern.  Pinned here:

1. *equivalence* — the legacy formulations, kept verbatim below as
   oracles, and the new routines agree bit for bit under random strikes
   on ``colid`` (negative words, words ≥ n, ±2⁶²) and ``rowidx``, with
   and without scratch, with a published hint, without one and with a
   stale-superset hint; on directed out-of-order row pointers, the
   batched row dots against the legacy per-row ``@`` loop, and the
   NumPy premise they rest on (batched matmul ≡ per-row ``@``);
2. *the hint's contract* — a superset of the wild positions, published
   only while ``rowidx`` equals the source, re-checked at every index
   mutation and restore;
3. *work and memory* at n = 19 881 — two kernel tiles and O(n) at most
   per guarded product, Chen residual, decoder call, checksum setup and
   correcting solve, and one chunk for out-of-order row pointers; the
   memo budget derived from the bound source;
4. the exact ``engine.products_guarded`` counter and its report line.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.abft.checksums import compute_checksums
from repro.abft.correction import _current_column_checksums, _row_counts
from repro.abft.spmv import protected_spmv
from repro.core.stability import residual_check
from repro.faults.bitflip import flip_bits_array
from repro.obs.metrics import METRICS
from repro.perf import SolveWorkspace
from repro.perf.trajectory import BUDGET_BYTES, TrajectoryMemo
from repro.sparse import CSRMatrix
from repro.sparse.norms import column_sums
from repro.sparse.spmv import _CHUNK, _ROW_BLOCK, TILE, scratch_size, spmv


# ----------------------------------------------------------------------
# the legacy formulations, verbatim (the oracles)
# ----------------------------------------------------------------------
def legacy_spmv(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """The guarded branch before the products routine: ``np.mod`` copy
    of all of ``colid``, then clip / reduceat / overshoot / row loop."""
    n = a.nrows
    y = np.zeros(n, dtype=np.float64)
    colid = a.colid
    if colid.size and (colid.min() < 0 or colid.max() >= a.ncols):
        colid = np.mod(colid, a.ncols)
    with np.errstate(over="ignore", invalid="ignore"):
        products = a.val * x[colid]
    rowptr = a.rowidx
    starts = np.clip(rowptr[:-1], 0, a.nnz)
    ends = np.clip(rowptr[1:], 0, a.nnz)
    if np.all(starts[1:] >= starts[:-1]) and np.all(ends >= starts):
        nonempty = ends > starts
        if nonempty.any():
            seg = np.add.reduceat(products, starts[nonempty])
            ends_ne = ends[nonempty]
            starts_ne = starts[nonempty]
            next_starts = np.empty_like(starts_ne)
            next_starts[:-1] = starts_ne[1:]
            next_starts[-1] = a.nnz
            overshoot = next_starts - ends_ne
            if np.any(overshoot > 0):
                idx = np.nonzero(overshoot > 0)[0]
                for k in idx:
                    seg[k] = products[starts_ne[k] : ends_ne[k]].sum()
            y[nonempty] = seg
        return y
    y = np.zeros(n, dtype=np.float64)
    bounds = np.clip(rowptr, 0, a.nnz).tolist()
    for i in range(n):
        lo = bounds[i]
        hi = bounds[i + 1]
        if hi > lo:
            y[i] = float(a.val[lo:hi] @ x[colid[lo:hi]])
    return y


def legacy_row_pattern(a: CSRMatrix) -> np.ndarray:
    if a.structure_clean:
        return np.repeat(np.arange(a.nrows), np.diff(a.rowidx))
    counts = np.maximum(np.diff(np.clip(a.rowidx, 0, a.nnz)), 0)
    return np.repeat(np.arange(a.nrows), counts)


def legacy_current_column_checksums(a: CSRMatrix, cks) -> np.ndarray:
    """The gather-based decoder checksums (int64 row pattern, ``np.mod``
    copy, per-nnz weight gather)."""
    n_rows, n_cols = a.shape
    out = np.zeros((cks.nchecks, n_cols), dtype=np.float64)
    row_of_nnz = legacy_row_pattern(a)
    m = min(row_of_nnz.size, a.nnz)
    if a.structure_clean:
        cols = a.colid[:m]
    else:
        cols = np.mod(a.colid[:m], n_cols)
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(cks.nchecks):
            out[l] = np.bincount(
                cols, weights=a.val[:m] * cks.weights[l, row_of_nnz[:m]], minlength=n_cols
            )
    return out


def legacy_column_sums(a: CSRMatrix, weights: "np.ndarray | None" = None) -> np.ndarray:
    n_rows, n_cols = a.shape
    out = np.zeros(n_cols, dtype=np.float64)
    if a.nnz == 0:
        return out
    if weights is None:
        contrib = a.val
    else:
        row_of_nnz = np.repeat(np.arange(n_rows), np.diff(a.rowidx))
        contrib = a.val * weights[row_of_nnz]
    np.add.at(out, a.colid, contrib)
    return out


# ----------------------------------------------------------------------
# generated struck matrices, driven through a real workspace ledger
# ----------------------------------------------------------------------
SPECIAL_WORDS = [-1, -7, 2**62, -(2**62), 2**63 - 1, -(2**63)]


def _bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _bare(a: CSRMatrix) -> CSRMatrix:
    """Same bytes (own copies), no stamp and no hint: the scan path."""
    return CSRMatrix(a.val.copy(), a.colid.copy(), a.rowidx.copy(), a.shape, check=False)


@st.composite
def struck_cases(draw):
    """A valid source bound to a workspace, its live copy after a drawn
    sequence of index strikes (each noted in the ledger, as the engine
    does) and repairs back to the source word (which leave the taint —
    and so the hint — a stale superset), and an input vector."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n)) * (rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 1.0])))
    if not dense.any():
        dense[0, 0] = 1.0
    src = CSRMatrix.from_dense(dense)
    ws = SolveWorkspace()
    live = ws.acquire_live(src)
    word = st.one_of(
        st.sampled_from(SPECIAL_WORDS),
        st.integers(-3 * n - 3, 3 * n + 3),
        st.integers(0, 63).map(lambda bit: ("flip", bit)),
    )
    events = draw(
        st.lists(
            st.tuples(st.sampled_from(["colid", "colid", "rowidx", "repair"]),
                      st.integers(0, 10**6), word),
            max_size=5,
        )
    )
    for target, pos, value in events:
        if target == "repair":
            name = "colid" if pos % 2 else "rowidx"
            arr, pos = getattr(live, name), pos % getattr(live, name).size
            arr[pos] = getattr(src, name)[pos]
        else:
            name, arr = target, getattr(live, target)
            pos %= arr.size
            if isinstance(value, tuple):  # the injector's single-bit flip
                flip_bits_array(arr, np.array([pos]), np.array([value[1]]))
            else:
                arr[pos] = value
        ws.note_matrix_mutation(name, pos)
    x = rng.normal(size=n)
    if draw(st.booleans()):
        x[rng.integers(n)] = draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e300]))
    return src, ws, live, x


def _variants(live: CSRMatrix, rng: np.random.Generator) -> "list[tuple[str, CSRMatrix]]":
    """The live matrix as published, the same bytes without a hint, and
    — when a hint is published — with extra in-range positions in it."""
    out = [("published", live), ("no hint", _bare(live))]
    if live._wild is not None:
        stale = live.copy()
        extra = rng.integers(0, live.nnz, size=3)
        stale._wild = np.union1d(live._wild, extra).astype(np.int64)
        out.append(("stale superset", stale))
    return out


# The example budget is the profile's: hypothesis' default in tier-1,
# 1000 under ``--hypothesis-profile soak``.
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(struck_cases())
def test_spmv_equals_the_legacy_guarded_branch(case):
    src, ws, live, x = case
    with np.errstate(all="ignore"):  # an inf/NaN input entry is drawn on purpose
        want = _bytes(legacy_spmv(_bare(live), x))
        scratch = np.full(live.nnz + 2, 7.0)
        for label, a in _variants(live, np.random.default_rng(0)):
            assert _bytes(spmv(a, x)) == want, label
            out = np.full(a.nrows, -1.0)
            assert _bytes(spmv(a, x, out=out, scratch=scratch)) == want, label


@SETTINGS
@given(struck_cases())
def test_hint_is_a_superset_published_only_on_pristine_rowidx(case):
    src, ws, live, x = case
    wild = np.flatnonzero((live.colid < 0) | (live.colid >= live.ncols))
    rows_pristine = np.array_equal(live.rowidx, src.rowidx)
    if live.structure_clean:
        assert wild.size == 0 and rows_pristine
    elif live._wild is not None:
        assert rows_pristine and set(wild.tolist()) <= set(live._wild.tolist())
        assert live._rows_nonempty == bool(np.all(np.diff(src.rowidx) > 0))
    else:
        assert not rows_pristine
    assert set(wild.tolist()) <= set(live.wild_positions().tolist())
    # A restore to the state captured now republishes the same facts.
    deltas = ws.capture_matrix_state()
    ws.restore_matrix_state(deltas)
    assert live.rows_clean == rows_pristine
    assert set(wild.tolist()) <= set(live.wild_positions().tolist())


@SETTINGS
@given(struck_cases())
def test_decoder_checksums_equal_the_gather_formulation(case):
    src, ws, live, x = case
    cks = compute_checksums(src, nchecks=2)
    want = _bytes(legacy_current_column_checksums(_bare(live), cks))
    for label, a in _variants(live, np.random.default_rng(1)):
        before = _bytes(a.colid)
        assert _bytes(_current_column_checksums(a, cks)) == want, label
        # the z = 2 trial loop's form: counts and wild set passed in
        got = _current_column_checksums(a, cks, _row_counts(a), a.wild_positions())
        assert _bytes(got) == want, label
        assert _bytes(a.colid) == before, label  # the in-place wrap is undone


@SETTINGS
@given(struck_cases(), st.booleans())
def test_protected_spmv_is_unchanged_by_the_lazy_snapshot(case, correct):
    """No fault hook: ``x`` is its own reliable snapshot and ``cx`` is
    derived only if the decoder runs — against a no-op hook, which takes
    both eagerly, every output, residual and repair is the same; and a
    published hint lets the exact row-pointer test read zero."""
    src, ws, live, x = case
    cks = compute_checksums(src, nchecks=2 if correct else 1)
    runs = []
    for hook, a, trust in (
        (None, live.copy(), True),
        (None, _bare(live), False),
        (lambda *args: None, _bare(live), False),
    ):
        xx = x.copy()
        with np.errstate(all="ignore"):
            res = protected_spmv(a, xx, cks, correct=correct, fault_hook=hook,
                                 trust_structure_stamp=trust)
        r = res.residuals
        runs.append((res.status, _bytes(res.y), _bytes(xx), _bytes(r.dr), _bytes(r.dx),
                     _bytes(r.dxp), _bytes(r.thresholds), res.correction,
                     _bytes(a.val), _bytes(a.colid), _bytes(a.rowidx)))
    assert runs[0] == runs[1] == runs[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.booleans())
def test_column_sums_equal_the_gather_formulation(seed, n, weighted):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
    a = CSRMatrix.from_dense(dense)
    w = rng.normal(size=n) if weighted else None
    assert _bytes(column_sums(a, weights=w)) == _bytes(legacy_column_sums(a, weights=w))


def test_rowidx_repair_through_the_ledger_republishes_the_hint():
    """A ``rowidx`` strike withdraws the hint; the decoder's exact
    repair, routed through ``note_matrix_mutation``, republishes it —
    with ``_rows_nonempty``, a fact about ``rowidx`` that outlives a
    ``colid``-only dirty stamp — while a ``colid`` word is still wild."""
    src = CSRMatrix.from_dense(np.diag(np.arange(1.0, 7.0)) + np.eye(6, k=1))
    ws = SolveWorkspace()
    live = ws.acquire_live(src)
    live.colid[2] = -(2**62)
    ws.note_matrix_mutation("colid", 2)
    assert not live.structure_clean and live._wild.tolist() == [2] and live._rows_nonempty
    live.rowidx[3] += 4
    ws.note_matrix_mutation("rowidx", 3)
    assert live._wild is None and not live.rows_clean
    live.rowidx[3] = src.rowidx[3]
    ws.note_matrix_mutation("rowidx", 3)
    assert live._wild.tolist() == [2] and live._rows_nonempty
    ws.reverify_structure()  # colid[2] still deviates: the stamp stays down
    assert not live.structure_clean and live.rows_clean
    live.colid[2] = src.colid[2]
    ws.note_matrix_mutation("colid", 2)
    ws.reverify_structure()
    assert live.structure_clean and live._wild is None


# ----------------------------------------------------------------------
# directed struck-pointer cases: the batched row dots
# ----------------------------------------------------------------------
def _rows_of(lengths, ncols: int, seed: int) -> CSRMatrix:
    """Rows of the given lengths over random in-range columns, values
    spread over 16 decades so a changed summation order shows."""
    rng = np.random.default_rng(seed)
    rowidx = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(rowidx[-1])
    val = rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 8, size=nnz)
    colid = rng.integers(0, ncols, size=nnz)
    return CSRMatrix(val, colid, rowidx, (len(lengths), ncols), check=False)


def _swap_strike(a: CSRMatrix, i: int) -> CSRMatrix:
    """Pointer ``i`` takes ``i + 2``'s word: row ``i - 1`` grows over
    row ``i``, which runs backward; every other row keeps its length."""
    a.rowidx[i] = a.rowidx[i + 2]
    return a


def _case_lengths_1_to_130():
    # three rows of every length 1..130, shuffled: batches of k > 1
    # across OpenBLAS's 16- and 32-element ddot blocks
    lengths = np.random.default_rng(1).permutation(np.repeat(np.arange(1, 131), 3))
    return _swap_strike(_rows_of(lengths, 150, 1), 200), None


def _case_backward_empty_overlapping():
    a = _rows_of([5] * 8, 16, 2)
    # [0,12) · [12,5) backward · [5,5) empty · [5,30) over row 0 ·
    # [30,18) backward · [18,40) and [22,40) overlapping to the end
    a.rowidx[:] = [0, 12, 5, 5, 30, 18, 40, 22, 40]
    return a, None


def _case_no_row_reads():
    # every row runs backward or is empty: no length class at all
    a = _rows_of([2, 3, 1], 3, 8)
    a.rowidx[:] = [6, 2, 2, 0]
    return a, None


def _case_huge_pointers():
    a = _rows_of(np.full(40, 7), 40, 3)
    a.rowidx[0] = -(2**62)  # clips to 0
    a.rowidx[9] = 2**62  # row 8 runs to nnz, row 9 backward from it
    a.rowidx[25] = -(2**62)  # row 25 re-reads from the start
    a.rowidx[31] = 2**63 - 1
    return a, None


def _case_wrapped_wild_colid():
    a = _swap_strike(_rows_of(np.full(30, 6), 30, 4), 11)
    for p, word in zip((0, 17, 64, 65, 179), (-1, 30 + 5, 2**62, -(2**63), -7)):
        a.colid[p] = word
    return a, None


def _case_non_finite_x():
    a = _swap_strike(_rows_of(np.full(30, 6), 30, 5), 4)
    x = np.random.default_rng(5).normal(size=30)
    x[[2, 9, 20]] = [np.inf, -np.inf, np.nan]
    return a, x


def _case_chunks_and_blocks():
    # 9 000 rows of nine: two row blocks, each length class over a chunk
    return _swap_strike(_rows_of(np.full(9000, 9), 9000, 6), 5000), None


def _case_row_longer_than_a_chunk():
    a = _rows_of(np.full(8, 5000), 64, 7)
    a.rowidx[2] = 2**62  # row 1 runs on to nnz: 35 000 entries, in place
    a.rowidx[5] = 3  # row 5 re-reads from near the start: 3 .. 30 000
    return a, None


STRUCK_POINTER_CASES = {
    f.__name__[len("_case_"):]: f
    for f in (_case_lengths_1_to_130, _case_backward_empty_overlapping, _case_no_row_reads,
              _case_huge_pointers, _case_wrapped_wild_colid, _case_non_finite_x,
              _case_chunks_and_blocks, _case_row_longer_than_a_chunk)
}


@pytest.mark.parametrize("with_scratch", [False, True], ids=["fresh", "scratch"])
@pytest.mark.parametrize("case", list(STRUCK_POINTER_CASES))
def test_batched_row_dots_equal_the_row_loop(case, with_scratch):
    a, x = STRUCK_POINTER_CASES[case]()
    clipped = np.clip(a.rowidx, 0, a.nnz)
    assert np.any(clipped[1:] < clipped[:-1])  # reduceat cannot take it
    if x is None:
        x = np.random.default_rng(0).normal(size=a.ncols)
    with np.errstate(all="ignore"):
        want = _bytes(legacy_spmv(a, x))
        if with_scratch:
            scratch, out = np.full(a.nnz + 5, 7.0), np.full(a.nrows, -1.0)
            got = spmv(a, x, out=out, scratch=scratch)
            assert got is out
        else:
            got = spmv(a, x)
    assert _bytes(got) == want


def test_batched_matmul_is_the_per_row_dot():
    """The premise the batched row dots rest on: matmul over a stack of
    ``1 × L`` by ``L × 1`` operands computes each product as ``@`` on
    the two rows does.  A NumPy or BLAS build where the two part ways
    fails here, loudly, rather than shifting results."""
    rng = np.random.default_rng(11)
    for length in [*range(1, 131), 200, 1000, 40_000]:
        k = 5
        v = rng.normal(size=(k, length)) * 10.0 ** rng.integers(-150, 150, size=(k, length))
        g = rng.normal(size=(k, length)) * 10.0 ** rng.integers(-150, 150, size=(k, length))
        batched = np.matmul(v[:, None, :], g[:, :, None])[:, 0, 0]
        rows = np.array([v[i] @ g[i] for i in range(k)])
        assert _bytes(batched) == _bytes(rows), length


# ----------------------------------------------------------------------
# (3) work and memory at paper scale
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper():
    from repro.sim.matrices import get_matrix

    a = get_matrix(2213, 1)
    assert a.nrows == 19881
    ws = SolveWorkspace()
    ws.acquire_live(a)
    cks = ws.checksums(a, nchecks=2)
    ws.abft_buffers(a.nrows, a.ncols, a.nnz)
    return a, ws, cks


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("struck", ["hint", "scan", "rowidx"])
def test_struck_paths_peak_within_two_tiles_and_o_n_at_paper_scale(paper, struck):
    """A wild ``colid`` read (hinted or scanned), a Chen residual, the
    decoder and a correcting protected product each peak at two kernel
    tiles plus O(n) (sixteen n-vectors); non-monotone row pointers,
    which take the batched row dots, cost a tile-byte scan mask, one
    chunk and the clipped pointers.  Nothing nnz-long: the workspace
    scratch itself is one tile."""
    a, ws, cks = paper
    n, nnz = a.nrows, a.nnz
    live = ws.acquire_live(a)  # strike-undo back to the source
    if struck == "rowidx":
        word, p = "rowidx", n // 3
        live.rowidx[p] = live.rowidx[p + 2]  # row p - 1 over row p: non-monotone
    else:
        word, p = "colid", nnz // 3
        live.colid[p] = 2**40  # a wild read the decoder moves back (z = 2)
    ws.note_matrix_mutation(word, p)
    if struck == "hint":
        assert live._wild.tolist() == [p]
    else:
        live._wild = None
    rng = np.random.default_rng(0)
    x, b = rng.normal(size=n), rng.normal(size=n)
    scratch, y = ws.buffer("spmv.scratch", scratch_size(nnz)), np.empty(n)
    assert scratch.shape == (TILE,) and ws.abft_buffers(n, n, nnz)[2].shape == (TILE,)
    tiles, small = 2 * 8 * TILE, 16 * 8 * n
    assert tiles + small < 8 * nnz
    if struck == "rowidx":
        # The strike withdraws the hint, so spmv first scans colid (a
        # TILE-byte mask at a time); the row dots then hold one chunk's
        # three gathered operands and a row block's index arrays.
        # Beside them: the clipped pointers, the one n-length temporary.
        chunk = 3 * 8 * _CHUNK + 4 * 8 * _ROW_BLOCK
        bound = TILE + chunk + 8 * (n + 1)
    else:
        bound = tiles + 8 * (n + 1)

    assert _peak(lambda: spmv(live, x, out=y, scratch=scratch)) <= bound
    assert _peak(lambda: residual_check(live, b, x, b, scratch=scratch)) <= tiles + small
    assert _peak(lambda: _current_column_checksums(live, cks)) <= tiles + small
    result = []
    assert _peak(lambda: result.append(
        protected_spmv(live, x, cks, workspace=ws, trust_structure_stamp=True)
    )) <= tiles + small
    assert result[0].correction.kind == word
    assert getattr(live, word)[p] == getattr(a, word)[p]


def test_checksum_setup_peaks_within_two_tiles_and_o_n_at_paper_scale(paper):
    a = paper[0]
    assert _peak(lambda: compute_checksums(a, nchecks=2)) <= 2 * 8 * TILE + 16 * 8 * a.nrows


@pytest.mark.parametrize(
    "target, bit", [("val", 52), ("colid", 40), ("rowidx", 3), ("rowidx", 40)]
)
def test_correcting_solve_peaks_within_two_tiles_and_o_n_at_paper_scale(paper, target, bit):
    """A correction-scheme CG solve on a bound workspace whose matrix is
    struck once, and repaired: above the workspace, its peak is two
    tiles and O(n) — checkpoints, decoder and the products included.
    A high ``rowidx`` bit clips the pointer to nnz, so the row before it
    spans the rest of the matrix; the batched row dots gather that one
    row, ``8·L`` bytes more (the documented single-long-row case)."""
    from repro.core.methods import CostModel, Scheme, SchemeConfig
    from repro.faults.injector import FaultInjector
    from repro.resilience.registry import run_ft_method

    a = paper[0]
    n = a.nrows
    config = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=10,
                          costs=CostModel.from_matrix(a))
    ws = SolveWorkspace()

    def solve(schedule):
        draws = iter(range(10**6))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FaultInjector, "sample_strikes",
                       lambda self, **_: list(schedule.get(next(draws), ())))
            return run_ft_method("cg", a, np.ones(n), config, alpha=0.5, eps=1e-30,
                                 maxiter=30, workspace=ws)

    solve({})  # binds the workspace: live copy, checksums, buffers, memo
    position = (a.nnz if target != "rowidx" else n) // 3
    result = []
    peak = _peak(lambda: result.append(solve({5: [(target, position, bit)]})))
    assert result[0].counters.corrections == {target: 1}
    long_row = 0
    if target == "rowidx" and 1 << bit > a.nnz:
        long_row = a.nnz - int(a.rowidx[position - 1])
    assert peak <= 2 * 8 * TILE + 8 * long_row + 16 * 8 * n


def test_memo_budget_is_derived_from_the_bound_source(paper):
    from repro.sim.matrices import get_matrix

    a, ws, _ = paper
    ws.acquire_live(a)
    memo = ws.trajectory("cg", None, np.zeros(a.nrows))
    assert memo.budget == 8 * a.memory_words > BUDGET_BYTES
    cg_state = {f"v{i}": np.full(a.nrows, float(i)) for i in range(4)}
    for k in range(49):
        memo.record(k, {"k": k}, cg_state)
    assert len(memo.snapshots) >= 10 and memo.nbytes <= memo.budget
    small = get_matrix(2213, 32)
    assert TrajectoryMemo("cg", None, np.zeros(small.nrows), source=small).budget == BUDGET_BYTES
    assert TrajectoryMemo("cg", None, np.zeros(3)).budget == BUDGET_BYTES


# ----------------------------------------------------------------------
# (4) the guarded-product counter
# ----------------------------------------------------------------------
def test_products_guarded_counts_every_kernel_run_on_a_dirty_stamp(monkeypatch):
    import repro.abft.spmv as abft_spmv
    from repro.core.methods import CostModel, Scheme, SchemeConfig
    from repro.resilience.registry import run_ft_method
    from repro.sparse import stencil_spd

    a = stencil_spd(256, kind="cross", radius=2)
    stamps = []
    real = abft_spmv.spmv_kernel

    def spy(m, x, *args):
        stamps.append(m.structure_clean)
        return real(m, x, *args)

    monkeypatch.setattr(abft_spmv, "spmv_kernel", spy)
    config = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=3,
                          costs=CostModel.from_matrix(a))
    g0 = METRICS.count("engine.products_guarded")
    with np.errstate(all="ignore"):
        for seed in range(4):
            run_ft_method("cg", a, np.ones(a.nrows), config, alpha=1.0, rng=seed, eps=1e-6,
                          maxiter=300, workspace=SolveWorkspace())
    guarded = METRICS.count("engine.products_guarded") - g0
    assert guarded == stamps.count(False) > 0


def test_report_shows_guarded_products_only_when_counted():
    from repro.api.report import _format_telemetry

    counters = {"engine.iterations_executed": 10, "engine.iterations_virtual": 4,
                "engine.iterations_replayed": 2}
    tele = {"records": 1, "fresh": 1, "cached": 0, "counters": counters, "timers": {}}
    line = "  iterations: 6 executed for real / 10 accounted (60.0%), 2 replayed"
    assert line in _format_telemetry(tele)
    counters["engine.products_guarded"] = 3
    assert line + "; 3 guarded products" in _format_telemetry(tele)
