"""A shared workspace is bit-identical to a private workspace per solve.

Every facility of a shared workspace — reused SpMxV/ABFT buffers, the
per-process checksum cache, strike-undo live-matrix restore, the
clean-trajectory memo — must reproduce a private workspace per solve
(what a solve given no workspace runs on) bit for bit, including runs
whose faults corrupt ``val``/``colid``/``rowidx`` and trigger
corrections, rollbacks and refreshes, and no state may leak between
consecutive runs sharing a workspace.  The delta matrix checkpoints are
held to a full-matrix :class:`~repro.checkpoint.store.CheckpointStore`
copy, and the golden trajectories lock the whole path end to end.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft import cached_checksums, clear_checksum_cache, compute_checksums
from repro.abft.spmv import protected_spmv
from repro.checkpoint.store import CheckpointStore
from repro.core import Scheme, SchemeConfig
from repro.core.methods import CostModel, Method
from repro.faults.bitflip import flip_bit_float64, flip_bit_int64
from repro.perf import SolveWorkspace, clear_caches, default_workspace
from repro.resilience.registry import run_ft_method
from repro.sim.engine import make_rhs, repeat_run
from repro.sparse import CSRMatrix, laplacian_2d, spmv, stencil_spd
from repro.sparse.validate import structure_arrays_clean
from repro.util.rng import spawn_named

RESULT_FIELDS = (
    "converged",
    "iterations",
    "iterations_executed",
    "time_units",
    "residual_norm",
    "threshold",
)

STATS_FIELDS = (
    "mean_time",
    "std_time",
    "min_time",
    "max_time",
    "mean_iterations",
    "mean_rollbacks",
    "mean_corrections",
    "mean_faults",
    "convergence_rate",
)


def _assert_same_result(got, want):
    for f in RESULT_FIELDS:
        assert getattr(got, f) == getattr(want, f), f
    np.testing.assert_array_equal(got.x, want.x)
    assert got.counters == want.counters
    assert got.breakdown == want.breakdown


@pytest.fixture
def problem():
    a = stencil_spd(529, kind="cross", radius=2)
    return a, make_rhs(a)


# ----------------------------------------------------------------------
# spmv: out/scratch buffers and the structure stamp
# ----------------------------------------------------------------------
class TestSpmvBuffers:
    def _both(self, a, x):
        """spmv fresh vs spmv with out+scratch (poisoned buffers)."""
        fresh = spmv(a, x)
        out = np.full(a.nrows, np.e)  # poison: must be fully overwritten
        scratch = np.full(max(a.nnz, 1), -np.pi)
        buffered = spmv(a, x, out=out, scratch=scratch)
        assert buffered is out
        np.testing.assert_array_equal(fresh, buffered)
        return fresh

    def test_clean_matrix(self, stencil, rng):
        self._both(stencil, rng.standard_normal(stencil.ncols))

    def test_clean_matrix_stamped(self, stencil, rng):
        x = rng.standard_normal(stencil.ncols)
        fresh = spmv(stencil, x)
        stamped = stencil.copy()
        stamped.assume_clean_structure()
        np.testing.assert_array_equal(fresh, self._both(stamped, x))

    def test_corrupted_colid_out_of_range(self, small_lap, rng):
        a = small_lap.copy()
        a.colid[7] = a.ncols + 13
        self._both(a, rng.standard_normal(a.ncols))

    def test_corrupted_colid_negative(self, small_lap, rng):
        a = small_lap.copy()
        a.colid[3] = -5
        self._both(a, rng.standard_normal(a.ncols))

    def test_corrupted_rowidx_nonmonotone_loop_path(self, small_lap, rng):
        a = small_lap.copy()
        a.rowidx[5] = int(a.rowidx[9])
        a.rowidx[6] = 1  # non-monotone: forces the row-loop fallback
        self._both(a, rng.standard_normal(a.ncols))

    def test_corrupted_rowidx_huge(self, small_lap, rng):
        a = small_lap.copy()
        a.rowidx[11] = flip_bit_int64(int(a.rowidx[11]), 62)
        self._both(a, rng.standard_normal(a.ncols))

    def test_stamp_lifecycle(self, small_lap):
        a = small_lap.copy()
        assert not a.structure_clean  # opt-in only
        assert structure_arrays_clean(a)
        a.assume_clean_structure()
        assert a.structure_clean
        assert a.copy().structure_clean  # copies inherit the stamp
        a.mark_structure_dirty()
        assert not a.structure_clean

    def test_empty_rows_stamped(self, rng):
        dense = np.zeros((6, 6))
        dense[0, 0] = 2.0
        dense[3, 2] = -1.0  # rows 1,2,4,5 empty
        a = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(6)
        fresh = spmv(a, x)
        a.assume_clean_structure()
        np.testing.assert_array_equal(fresh, self._both(a, x))


# ----------------------------------------------------------------------
# checksum cache
# ----------------------------------------------------------------------
class TestChecksumCache:
    def test_identity_and_equality(self, small_lap):
        clear_checksum_cache()
        c1 = cached_checksums(small_lap, nchecks=2)
        assert cached_checksums(small_lap, nchecks=2) is c1
        assert cached_checksums(small_lap, nchecks=1) is not c1
        fresh = compute_checksums(small_lap, nchecks=2)
        np.testing.assert_array_equal(c1.column_checksums, fresh.column_checksums)
        np.testing.assert_array_equal(c1.rowidx_checksums, fresh.rowidx_checksums)
        assert c1.rowidx_checksums_exact == fresh.rowidx_checksums_exact
        assert c1.shift == fresh.shift

    def test_clear_hook(self, small_lap):
        c1 = cached_checksums(small_lap, nchecks=2)
        clear_checksum_cache()
        assert cached_checksums(small_lap, nchecks=2) is not c1

    def test_keyed_by_object_identity(self, small_lap):
        c1 = cached_checksums(small_lap, nchecks=2)
        assert cached_checksums(small_lap.copy(), nchecks=2) is not c1

    def test_precomputed_w_minus_c(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=2)
        np.testing.assert_array_equal(
            cks.weights_minus_checksums, cks.weights - cks.column_checksums
        )


# ----------------------------------------------------------------------
# protected_spmv with workspace buffers
# ----------------------------------------------------------------------
class TestProtectedSpmvWorkspace:
    CASES = [
        ("clean", lambda a: None),
        ("val", lambda a: a.val.__setitem__(10, a.val[10] + 7.5)),
        ("colid", lambda a: a.colid.__setitem__(4, (int(a.colid[4]) + 3) % a.ncols)),
        ("rowidx", lambda a: a.rowidx.__setitem__(30, int(a.rowidx[30]) + 1)),
    ]

    @pytest.mark.parametrize("label,corrupt", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("correct", [False, True])
    def test_bit_identical(self, small_lap, rng, label, corrupt, correct):
        cks = compute_checksums(small_lap, nchecks=2 if correct else 1)
        x = rng.standard_normal(small_lap.ncols)
        ws = SolveWorkspace()
        a1, a2 = small_lap.copy(), small_lap.copy()
        corrupt(a1)
        corrupt(a2)
        r_fresh = protected_spmv(a1, x.copy(), cks, correct=correct)
        r_ws = protected_spmv(a2, x.copy(), cks, correct=correct, workspace=ws)
        assert r_fresh.status == r_ws.status
        np.testing.assert_array_equal(r_fresh.y, r_ws.y)
        np.testing.assert_array_equal(a1.val, a2.val)
        np.testing.assert_array_equal(a1.colid, a2.colid)
        np.testing.assert_array_equal(a1.rowidx, a2.rowidx)


# ----------------------------------------------------------------------
# engine: a shared workspace vs a private workspace per solve
# ----------------------------------------------------------------------
GRID = [
    (Method.CG, Scheme.ONLINE_DETECTION, 4),
    (Method.CG, Scheme.ABFT_DETECTION, 1),
    (Method.CG, Scheme.ABFT_CORRECTION, 1),
    (Method.BICGSTAB, Scheme.ABFT_DETECTION, 1),
    (Method.BICGSTAB, Scheme.ABFT_CORRECTION, 1),
    (Method.PCG, Scheme.ABFT_DETECTION, 1),
    (Method.PCG, Scheme.ABFT_CORRECTION, 1),
]


class TestEngineWorkspace:
    @pytest.mark.parametrize(
        "method,scheme,d", GRID, ids=[f"{m.value}-{s.value}" for m, s, _ in GRID]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_run_bit_identical_shared_workspace(self, problem, method, scheme, d, alpha):
        """One workspace across reps == a private workspace per rep, for every
        scheme×method, at a fault rate that corrupts all three matrix
        arrays (corrections, rollbacks, TMR votes, refreshes)."""
        a, b = problem
        cfg = SchemeConfig(scheme, checkpoint_interval=3, verification_interval=d)
        ws = SolveWorkspace()
        for rep in range(4):
            with np.errstate(all="ignore"):
                want = run_ft_method(
                    method, a, b, cfg, alpha=alpha, rng=1000 + rep, eps=1e-6
                )
                got = run_ft_method(
                    method, a, b, cfg, alpha=alpha, rng=1000 + rep, eps=1e-6, workspace=ws
                )
            _assert_same_result(got, want)
        if alpha > 0:
            assert ws.live_restores >= 3  # reps actually reused the live copy

    def test_grid_covers_all_matrix_arrays(self, problem):
        """The α = 0.4 grid above must actually corrupt val, colid and
        rowidx — otherwise the bit-identity claims are vacuous."""
        from repro.resilience.cg import CGPlugin
        from repro.resilience.engine import run_protected

        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=3)
        struck = set()
        for rep in range(6):
            ws = SolveWorkspace()
            with np.errstate(all="ignore"):
                run_protected(
                    CGPlugin(), a, b, cfg, alpha=0.4, rng=1000 + rep, eps=1e-6, workspace=ws
                )
            struck |= {name for name, s in ws._taint.items() if s.size}
        assert struck == {"val", "colid", "rowidx"}

    def test_strike_undo_restores_live_bit_exact(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=3)
        ws = SolveWorkspace()
        with np.errstate(all="ignore"):
            run_ft_method("cg", a, b, cfg, alpha=0.6, rng=5, eps=1e-6, workspace=ws)
        live = ws.acquire_live(a)  # triggers strike-undo restore
        assert ws.live_restores == 1
        np.testing.assert_array_equal(live.val, a.val)
        np.testing.assert_array_equal(live.colid, a.colid)
        np.testing.assert_array_equal(live.rowidx, a.rowidx)
        assert live.structure_clean  # verdict re-armed with the bytes

    def test_workspace_switches_matrices(self, problem, small_lap):
        """Re-binding a workspace to a different matrix rebuilds the
        live copy and stays bit-identical on both."""
        a, b = problem
        b2 = make_rhs(small_lap)
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=3)
        ws = SolveWorkspace()
        for mat, rhs in ((a, b), (small_lap, b2), (a, b), (small_lap, b2)):
            with np.errstate(all="ignore"):
                want = run_ft_method("cg", mat, rhs, cfg, alpha=0.3, rng=9, eps=1e-6)
                got = run_ft_method("cg", mat, rhs, cfg, alpha=0.3, rng=9, eps=1e-6, workspace=ws)
            _assert_same_result(got, want)

    def test_no_leak_between_unfaulted_and_faulted(self, problem):
        """A heavily faulted run must not contaminate the next clean
        run sharing the workspace, and vice versa."""
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=3)
        ws = SolveWorkspace()
        with np.errstate(all="ignore"):
            clean_fresh = run_ft_method("cg", a, b, cfg, alpha=0.0, rng=0, eps=1e-6)
            run_ft_method("cg", a, b, cfg, alpha=0.8, rng=1, eps=1e-6, workspace=ws)
            clean_ws = run_ft_method("cg", a, b, cfg, alpha=0.0, rng=0, eps=1e-6, workspace=ws)
        _assert_same_result(clean_ws, clean_fresh)


# ----------------------------------------------------------------------
# repeat_run / campaign / facade knobs
# ----------------------------------------------------------------------
class TestRepeatRunWorkspace:
    @pytest.mark.parametrize("alpha", [0.0, 0.35])
    def test_repeat_run_identical(self, problem, alpha):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=4)
        with np.errstate(all="ignore"):
            fresh = repeat_run(
                a, b, cfg, alpha=alpha, reps=5, base_seed=2, eps=1e-6,
                reuse_workspace=False,
            )
            ws = repeat_run(
                a, b, cfg, alpha=alpha, reps=5, base_seed=2, eps=1e-6,
                reuse_workspace=True,
            )
        for f in STATS_FIELDS:
            assert getattr(fresh, f) == getattr(ws, f), f

    def test_reps_match_isolated_runs(self, problem):
        """Each repetition in a workspace-shared sequence equals the
        same repetition run in a fresh process state — the no-leak
        property expressed at the campaign level."""
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=4)
        ws = SolveWorkspace()
        for rep in range(5):
            rng_ws = spawn_named(2, cfg.scheme.value, 0.35, rep)
            rng_fresh = spawn_named(2, cfg.scheme.value, 0.35, rep)
            with np.errstate(all="ignore"):
                got = run_ft_method("cg", a, b, cfg, alpha=0.35, rng=rng_ws, eps=1e-6, workspace=ws)
                want = run_ft_method("cg", a, b, cfg, alpha=0.35, rng=rng_fresh, eps=1e-6)
            _assert_same_result(got, want)

    def test_executor_record_identical(self):
        from repro.campaign.executor import execute_task
        from repro.campaign.spec import TaskSpec

        task = TaskSpec(
            experiment="table1", uid=2213, scale=48, scheme="abft-correction",
            alpha=0.25, s=4, d=1, reps=3, base_seed=11, eps=1e-6,
            labels=("t",), s_model=4,
        )
        with np.errstate(all="ignore"):
            rec_ws = execute_task(task, reuse_workspace=True)
            rec_fresh = execute_task(task, reuse_workspace=False)
        assert rec_ws["hash"] == rec_fresh["hash"]
        assert rec_ws["stats"] == rec_fresh["stats"]

    def test_solve_facade_knob(self, small_lap):
        from repro import FaultSpec, solve

        b = make_rhs(small_lap)
        r1 = solve(small_lap, b, scheme="abft-correction", faults=FaultSpec(0.3, seed=3))
        r2 = solve(
            small_lap, b, scheme="abft-correction", faults=FaultSpec(0.3, seed=3),
            reuse_workspace=True,
        )
        ws = SolveWorkspace()
        r3 = solve(
            small_lap, b, scheme="abft-correction", faults=FaultSpec(0.3, seed=3),
            reuse_workspace=ws,
        )
        assert r1.solution_sha256 == r2.solution_sha256 == r3.solution_sha256
        assert r1.time_units == r2.time_units == r3.time_units
        assert ws.live_copies == 1

    def test_default_solve_sees_an_in_place_edit(self):
        """The private workspace of a default solve computes its
        checksums: it never reads the process cache, which keys on the
        matrix object and would still describe the unedited values."""
        from repro import FaultSpec, solve

        a = laplacian_2d(16)
        b = make_rhs(a)
        kw = dict(scheme="abft-correction", faults=FaultSpec(0.3, seed=3))

        def report(r):
            return {k: v for k, v in r.to_dict().items() if k != "wall_seconds"}

        solve(a, b, **kw)
        a.val *= 1.5
        edited = solve(a, b, **kw)
        assert report(edited) == report(solve(a.copy(), b, **kw))

    def test_default_workspace_is_shared(self):
        assert default_workspace() is default_workspace()
        clear_caches()  # resets it
        assert isinstance(default_workspace(), SolveWorkspace)


# ----------------------------------------------------------------------
# golden trajectories through the workspace path
# ----------------------------------------------------------------------
GOLDEN = pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json"
_gold = json.loads(GOLDEN.read_text())


class TestGoldenThroughWorkspace:
    def test_golden_trajectories_workspace(self):
        """Every golden FT-CG/BiCGstab trajectory reproduces bit for bit
        through ONE workspace shared across all entries — schemes,
        alphas and solvers interleaved, exactly the campaign pattern."""

        a = stencil_spd(529, kind="cross", radius=2)
        b = np.random.default_rng(_gold["rhs_seed"]).normal(size=a.nrows)
        ws = SolveWorkspace()
        for entry in _gold["entries"]:
            cfg = SchemeConfig(
                Scheme(entry["scheme"]),
                checkpoint_interval=_gold["s"],
                verification_interval=entry["d"],
            )
            method = "cg" if entry["driver"] == "ft_cg" else "bicgstab"
            with np.errstate(all="ignore"):
                res = run_ft_method(
                    method, a, b, cfg, alpha=entry["alpha"], rng=entry["seed"],
                    eps=_gold["eps"], workspace=ws,
                )
            want = entry["result"]
            assert (
                hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest()
                == want["x_sha256"]
            ), entry
            assert float(res.time_units).hex() == want["time_units"], entry
            assert res.iterations_executed == want["iterations_executed"], entry


# ----------------------------------------------------------------------
# delta matrix checkpoints
# ----------------------------------------------------------------------
_DELTA_A = stencil_spd(36, kind="cross", radius=1)
_ARRAYS = ("val", "colid", "rowidx")


def _mutate(live, ws, ops) -> None:
    """Apply strikes (one bit flipped) and decoder-style repairs (an
    index word rewritten to its source value, a ``val`` word to an
    arithmetic estimate), each reported to the strike-undo ledger."""
    for name, frac, bit, repair in ops:
        arr = getattr(live, name)
        pos = int(frac * arr.shape[0]) % arr.shape[0]
        if repair:
            src = getattr(_DELTA_A, name)[pos]
            arr[pos] = src + 0.25 * frac if name == "val" else src
        elif name == "val":
            arr[pos] = flip_bit_float64(float(arr[pos]), bit)
        else:
            arr[pos] = flip_bit_int64(int(arr[pos]), bit)
        ws.note_matrix_mutation(name, pos)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(_ARRAYS),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 63),
        st.booleans(),
    ),
    max_size=6,
)


class TestDeltaCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(before=_OPS, after=_OPS)
    def test_restore_equals_a_full_matrix_checkpoint(self, before, after):
        """``capture_matrix_state`` / ``restore_matrix_state`` give back
        the bytes a full-matrix checkpoint taken at capture time holds,
        and the restored stamp never claims a structure that fails the
        exact check."""
        ws = SolveWorkspace()
        live = ws.acquire_live(_DELTA_A)
        _mutate(live, ws, before)
        deltas = ws.capture_matrix_state()
        full = CheckpointStore(keep=1).save(0, vectors={}, matrix=live).matrix
        _mutate(live, ws, after)
        ws.restore_matrix_state(deltas)
        for name in _ARRAYS:
            assert getattr(live, name).tobytes() == getattr(full, name).tobytes(), name
        if live.structure_clean:
            assert structure_arrays_clean(live)

    @pytest.mark.xfail(strict=True, reason="ROADMAP 3(c)")
    def test_restore_of_pristine_index_words_rearms_the_stamp(self):
        """The strike-undo ledger's slack: a captured index word that
        equals the source again (struck, then repaired) still leaves the
        stamp down after the restore, so later products take the
        guarded kernel.  A re-arm on pristine words fixes it, and moves
        non-reference results."""
        a = _DELTA_A
        ws = SolveWorkspace()
        live = ws.acquire_live(a)
        _mutate(live, ws, [("colid", 0.5, 40, False), ("colid", 0.5, 0, True)])
        deltas = ws.capture_matrix_state()
        idx, values = deltas["colid"]
        assert np.array_equal(values, a.colid[idx])
        _mutate(live, ws, [("colid", 0.25, 40, False)])
        ws.restore_matrix_state(deltas)
        assert all(getattr(live, n).tobytes() == getattr(a, n).tobytes() for n in _ARRAYS)
        assert live.structure_clean


# ----------------------------------------------------------------------
# checkpoint store recycling
# ----------------------------------------------------------------------
class TestCheckpointRecycle:
    def test_recycled_saves_match_fresh(self, small_lap, rng):
        plain = CheckpointStore(keep=1)
        recyc = CheckpointStore(keep=1, recycle=True)
        vecs = {"x": rng.standard_normal(8), "r": rng.standard_normal(8)}
        for it in range(4):
            for v in vecs.values():
                v += 1.0
            small_lap.val[0] += 1.0
            cp_p = plain.save(it, vectors=vecs, matrix=small_lap, scalars={"rr": float(it)})
            cp_r = recyc.save(it, vectors=vecs, matrix=small_lap, scalars={"rr": float(it)})
            for k in vecs:
                np.testing.assert_array_equal(cp_p.vectors[k], cp_r.vectors[k])
            np.testing.assert_array_equal(cp_p.matrix.val, cp_r.matrix.val)
            assert cp_p.scalars == cp_r.scalars
        # steady state: the recycling store reuses the evicted arrays
        before = recyc.latest.vectors["x"]
        for v in vecs.values():
            v += 1.0
        evicted = recyc.latest
        recyc.save(9, vectors=vecs, matrix=small_lap)
        assert recyc.latest.vectors["x"] is not before or evicted is not recyc.latest

    def test_borrow_latest_counts_restore(self, rng):
        store = CheckpointStore(keep=1)
        store.save(0, vectors={"x": rng.standard_normal(4)})
        cp = store.borrow_latest()
        assert store.restores == 1
        assert cp is store.latest


# ----------------------------------------------------------------------
# matrix cache
# ----------------------------------------------------------------------
class TestMatrixCache:
    def test_unbounded_and_clearable(self):
        from repro.sim.matrices import clear_matrix_cache, get_matrix

        m1 = get_matrix(2213, 64)
        assert get_matrix(2213, 64) is m1  # shared instance (identity key)
        from repro.sim.matrices import _synthesize

        assert _synthesize.cache_info().maxsize is None  # no mid-campaign eviction
        clear_matrix_cache()
        assert get_matrix(2213, 64) is not m1
