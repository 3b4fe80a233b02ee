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
   stale-superset hint;
2. *the hint's contract* — a superset of the wild positions, published
   only while ``rowidx`` equals the source, re-checked at every index
   mutation and restore;
3. *work and memory* at n = 19 881 — one nnz-length array at most per
   guarded product, Chen residual and decoder call; the memo budget
   derived from the bound source;
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
from repro.sparse.spmv import spmv


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


@pytest.mark.parametrize("hinted", [True, False], ids=["hint", "scan"])
def test_struck_paths_peak_at_one_nnz_array_at_paper_scale(paper, hinted):
    a, ws, cks = paper
    n, nnz = a.nrows, a.nnz
    live = ws.acquire_live(a)  # strike-undo back to the source
    p = nnz // 3
    live.colid[p] = 2**40  # a wild read the decoder moves back (z = 2)
    ws.note_matrix_mutation("colid", p)
    assert live._wild.tolist() == [p]
    if not hinted:
        live._wild = None
    rng = np.random.default_rng(0)
    x, b = rng.normal(size=n), rng.normal(size=n)
    scratch, y = ws.buffer("spmv.scratch", nnz), np.empty(n)
    one_array, small = 8 * nnz, 16 * 8 * n

    assert _peak(lambda: spmv(live, x, out=y, scratch=scratch)) < one_array
    assert _peak(lambda: residual_check(live, b, x, b, scratch=scratch)) < one_array
    assert _peak(lambda: _current_column_checksums(live, cks)) <= one_array + small
    result = []
    assert _peak(lambda: result.append(
        protected_spmv(live, x, cks, workspace=ws, trust_structure_stamp=True)
    )) <= one_array + small
    assert result[0].correction.kind == "colid" and live.colid[p] == a.colid[p]


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
@pytest.mark.parametrize("workspace", [True, False], ids=["workspace", "fresh"])
def test_products_guarded_counts_every_kernel_run_on_a_dirty_stamp(monkeypatch, workspace):
    import repro.abft.spmv as abft_spmv
    from repro.core.methods import CostModel, Scheme, SchemeConfig
    from repro.resilience.registry import run_ft_method
    from repro.sparse import stencil_spd

    a = stencil_spd(256, kind="cross", radius=2)
    stamps = []
    real = abft_spmv.spmv

    def spy(m, x, **kw):
        stamps.append(m.structure_clean)
        return real(m, x, **kw)

    monkeypatch.setattr(abft_spmv, "spmv", spy)
    config = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=3,
                          costs=CostModel.from_matrix(a))
    g0 = METRICS.count("engine.products_guarded")
    with np.errstate(all="ignore"):
        for seed in range(4):
            run_ft_method("cg", a, np.ones(a.nrows), config, alpha=1.0, rng=seed, eps=1e-6,
                          maxiter=300, workspace=SolveWorkspace() if workspace else None)
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
