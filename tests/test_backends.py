"""The kernel choice (:mod:`repro.backends`): ``reference`` or ``scipy``.

Locks the three contracts the choice stands on:

1. **Reference is the oracle.** ``backend="reference"`` — explicit,
   default, as the shared object — is bit-identical to the pre-backend
   code path on every entry point (``spmv``, ``protected_spmv``,
   ``solve``, ``repeat_run``).
2. **One rule routes every product.** A product uses SciPy's
   ``csr_matvec`` only on ``scipy`` *and* under the ``structure_clean``
   stamp; every other product is the wild-read kernel's, so fault
   emulation and ABFT detection semantics cannot depend on the kernel.
   :class:`TestRoutingProperty` holds it on generated matrices, clean
   and struck (CI's chaos-smoke runs it at ``--hypothesis-profile
   soak``).
3. **SciPy is numerically equivalent where it substitutes.** On
   structure-clean products it agrees with the reference kernel to
   rounding, and fault-free solves on the paper suite produce
   identical convergence histories (same iterations, same events).
"""

import contextlib
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.abft.spmv import SpmvStatus, protected_spmv
from repro.backends import available_backends, get_backend, kernel_matvec
from repro.obs.metrics import METRICS
from repro.perf import SolveWorkspace
from repro.sim.engine import make_rhs, repeat_run
from repro.sim.matrices import get_matrix
from repro.sparse import CSRMatrix, stencil_spd
from repro.sparse.spmv import spmv
from repro.core.methods import Scheme, SchemeConfig


def stamped(a: CSRMatrix) -> CSRMatrix:
    a.assume_clean_structure()
    return a


@pytest.fixture
def suite_matrix():
    return get_matrix(2213, 48)


@pytest.fixture
def small_system():
    a = stencil_spd(100, kind="cross", radius=1)
    b = make_rhs(a)
    return a, b


class TestRegistry:
    def test_shipped_backends_registered(self):
        names = available_backends()
        assert names[:2] == ("reference", "scipy")

    def test_get_backend_by_name_is_shared_instance(self):
        assert get_backend("scipy") is get_backend("scipy")
        assert get_backend("reference").name == "reference"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="reference"):
            get_backend("cuda")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_kernel_matvec_resolves_reference_to_none(self):
        # The per-solve form: every spelling of "reference" is None, so
        # the routing test of a reference product is one identity check.
        from repro.sparse._scipy import csr_matvec

        for spelling in (None, "reference", get_backend("reference")):
            assert kernel_matvec(spelling) is None
        assert kernel_matvec("scipy") is kernel_matvec(get_backend("scipy")) is csr_matvec()
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            kernel_matvec("gpu")


class TestSpmvDispatch:
    def test_reference_backend_bit_identical(self, suite_matrix):
        x = np.random.default_rng(3).standard_normal(suite_matrix.ncols)
        base = spmv(suite_matrix, x)
        assert np.array_equal(spmv(suite_matrix, x, backend="reference"), base)
        assert np.array_equal(spmv(suite_matrix, x, backend=None), base)
        assert np.array_equal(
            spmv(suite_matrix, x, backend=get_backend("reference")), base
        )

    def test_scipy_matches_reference_to_rounding(self, suite_matrix):
        a = stamped(suite_matrix.copy())
        x = np.random.default_rng(4).standard_normal(a.ncols)
        y_ref = spmv(a, x)
        y_sp = spmv(a, x, backend="scipy")
        np.testing.assert_allclose(y_sp, y_ref, rtol=1e-12, atol=1e-14)

    def test_scipy_honours_out_buffer(self, suite_matrix):
        a = stamped(suite_matrix.copy())
        x = np.random.default_rng(5).standard_normal(a.ncols)
        out = np.full(a.nrows, np.nan)
        y = spmv(a, x, out=out, backend="scipy")
        assert y is out
        np.testing.assert_allclose(out, spmv(a, x), rtol=1e-12, atol=1e-14)

    def test_scipy_unstamped_falls_back_to_reference_bits(self, suite_matrix):
        # No structure_clean stamp -> guarded path -> reference kernel,
        # hence *bit*-identical, not merely close.
        x = np.random.default_rng(6).standard_normal(suite_matrix.ncols)
        assert not suite_matrix.structure_clean
        assert np.array_equal(
            spmv(suite_matrix, x, backend="scipy"), spmv(suite_matrix, x)
        )

    def test_scipy_corrupted_colid_keeps_wild_read_emulation(self):
        a = stamped(stencil_spd(64, kind="cross", radius=1))
        a.colid[3] = a.ncols + 17  # out-of-range wild read
        a.mark_structure_dirty()
        x = np.arange(a.ncols, dtype=float)
        assert np.array_equal(spmv(a, x, backend="scipy"), spmv(a, x))

    def test_scipy_sees_inplace_val_corruption(self):
        # A val strike leaves the stamp armed; the compiled kernel must
        # read the corrupted byte, not some stale copy.
        a = stamped(stencil_spd(64, kind="cross", radius=1))
        x = np.ones(a.ncols)
        before = spmv(a, x, backend="scipy").copy()
        a.val[5] += 1000.0
        after = spmv(a, x, backend="scipy")
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after, spmv(a, x), rtol=1e-12, atol=1e-12)

    def test_empty_matrix(self):
        a = CSRMatrix(
            np.zeros(0), np.zeros(0, dtype=np.int64),
            np.zeros(4, dtype=np.int64), (3, 3),
        )
        stamped(a)
        assert np.array_equal(spmv(a, np.ones(3), backend="scipy"), np.zeros(3))

    def test_shape_mismatch_raises_everywhere(self, suite_matrix):
        a = stamped(suite_matrix.copy())
        bad = np.ones(a.ncols + 1)
        for backend in (None, "scipy"):
            with pytest.raises(ValueError, match="shape"):
                spmv(a, bad, backend=backend)

    def test_scipy_rejects_short_out_buffer(self, suite_matrix):
        # The compiled kernel does no bounds checking; a short `out`
        # must raise cleanly instead of writing out of bounds.
        a = stamped(suite_matrix.copy())
        x = np.ones(a.ncols)
        with pytest.raises(ValueError, match="out"):
            spmv(a, x, out=np.empty(a.nrows - 1), backend="scipy")


class TestProtectedSpmv:
    def test_fault_free_ok_on_every_backend(self, small_system):
        a, _ = small_system
        stamped(a)
        x = np.random.default_rng(8).standard_normal(a.ncols)
        for backend in (None, "reference", "scipy"):
            res = protected_spmv(a.copy(), x.copy(), backend=backend)
            assert res.status is SpmvStatus.OK

    def test_scipy_detects_val_corruption(self, small_system):
        # Large val corruption on a structure-clean matrix: the scipy
        # kernel computes the corrupted product and ABFT must flag it.
        a, _ = small_system
        live = stamped(a.copy())
        from repro.abft.checksums import compute_checksums

        cks = compute_checksums(live, nchecks=2)
        x = np.random.default_rng(9).standard_normal(a.ncols)

        def hook(stage, m, _x, _y):
            if stage == "pre":
                m.val[7] += 1e6

        res = protected_spmv(
            live, x, cks, correct=True, fault_hook=hook, backend="scipy"
        )
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == "val"


class TestSolveFacade:
    def test_explicit_reference_bit_identical_to_default(self, small_system):
        a, b = small_system
        kwargs = dict(faults=repro.FaultSpec(alpha=0.05, seed=11), eps=1e-8)
        default = repro.solve(a, b, **kwargs)
        explicit = repro.solve(a, b, backend="reference", **kwargs)
        assert default.backend == explicit.backend == "reference"
        assert default.solution_sha256 == explicit.solution_sha256
        assert default.time_units == explicit.time_units
        assert default.history == explicit.history

    def test_scipy_fault_free_identical_convergence_history(self):
        # Acceptance lock: identical convergence histories on the
        # fault-free paper suite (same iterations, same simulated time;
        # residuals agree to rounding).
        for uid in (2213, 1312):
            a = get_matrix(uid, 48)
            b = make_rhs(a)
            ref = repro.solve(a, b, eps=1e-6)
            sp = repro.solve(a, b, backend="scipy", eps=1e-6)
            assert sp.backend == "scipy"
            assert sp.converged and ref.converged
            assert sp.iterations == ref.iterations
            assert sp.time_units == ref.time_units
            r_ref = [h["residual_norm"] for h in ref.history]
            r_sp = [h["residual_norm"] for h in sp.history]
            np.testing.assert_allclose(r_sp, r_ref, rtol=1e-6)

    def test_scipy_faulty_solve_converges(self, small_system):
        a, b = small_system
        report = repro.solve(
            a, b, backend="scipy",
            faults=repro.FaultSpec(alpha=0.1, seed=5), eps=1e-6,
        )
        assert report.converged
        assert report.counters.faults_injected > 0
        assert report.residual_norm <= report.threshold

    def test_scipy_online_detection_whole_run_on_one_axis(self, small_system):
        # ONLINE-DETECTION's verification SpMxV (chen_verify) rides the
        # run's backend too: fault-free scipy matches reference
        # iteration-for-iteration, and a faulty run still detects.
        a, b = small_system
        kwargs = dict(scheme="online-detection", eps=1e-6)
        ref = repro.solve(a, b, **kwargs)
        sp = repro.solve(a, b, backend="scipy", **kwargs)
        assert sp.iterations == ref.iterations
        assert sp.time_units == ref.time_units
        faulty = repro.solve(
            a, b, backend="scipy",
            faults=repro.FaultSpec(alpha=0.2, seed=4), **kwargs,
        )
        assert faulty.converged

    def test_backend_in_report_dict(self, small_system):
        a, b = small_system
        report = repro.solve(a, b, backend="scipy", eps=1e-8)
        assert report.to_dict()["backend"] == "scipy"

    def test_unknown_backend_rejected_before_work(self, small_system):
        a, b = small_system
        with pytest.raises(ValueError, match="unknown backend"):
            repro.solve(a, b, backend="gpu")

class TestRepeatRunAndWorkspace:
    def test_reference_repeat_run_bit_identical(self, small_system):
        a, b = small_system
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
        base = repeat_run(a, b, cfg, alpha=0.05, reps=3, base_seed=7)
        explicit = repeat_run(
            a, b, cfg, alpha=0.05, reps=3, base_seed=7, backend="reference"
        )
        assert base == explicit

    def test_scipy_workspace_matches_scipy_fresh(self, small_system):
        # A private workspace per repetition (no memo, no checksum
        # cache) against one shared workspace, on the scipy backend.
        a, b = small_system
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
        fresh = repeat_run(
            a, b, cfg, alpha=0.05, reps=3, base_seed=7,
            backend="scipy", reuse_workspace=False,
        )
        ws = repeat_run(
            a, b, cfg, alpha=0.05, reps=3, base_seed=7,
            backend="scipy", reuse_workspace=True,
        )
        assert fresh == ws

    def test_scipy_fresh_and_workspace_solves_agree(self):
        # The default solve runs on a private workspace: the same delta
        # checkpoints and stamp rules as a caller's workspace, so under
        # scipy too it returns what a campaign task computes, at a fault
        # rate whose index-strike rollbacks leave the stamp down
        # (tests/test_perf_workspace.py pins that slack, ROADMAP 3(c)).
        a = stencil_spd(400, kind="cross", radius=2)
        b = make_rhs(a)
        for seed in range(4):
            kw = dict(
                scheme="abft-detection", faults=repro.FaultSpec(0.25, seed=seed),
                checkpoint=8, backend="scipy", eps=1e-6, record_history=False,
            )
            with np.errstate(all="ignore"):
                fresh = repro.solve(a, b, **kw)
                warm = repro.solve(a, b, reuse_workspace=SolveWorkspace(), **kw)
            assert (fresh.solution_sha256, fresh.time_units) == (
                warm.solution_sha256, warm.time_units
            ), seed

    def test_faulty_scipy_run_same_strike_streams(self, small_system):
        # The backend does not enter the seed derivation: both backends
        # face the same number of injected faults at the same point.
        a, b = small_system
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
        ref = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=13)
        sp = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=13, backend="scipy")
        assert ref.mean_faults == sp.mean_faults
        assert ref.convergence_rate == sp.convergence_rate == 1.0


class TestStudyAndCampaign:
    def test_backend_axis_compiles_product(self):
        study = (repro.Study("kernels")
                 .axis("backend", ["reference", "scipy"])
                 .fix(uid=2213, scale=64, reps=1, s=4, d=1))
        tasks = study.tasks()
        assert [t.backend for t in tasks] == ["reference", "scipy"]
        assert len({t.task_hash() for t in tasks}) == 2

    def test_backend_axis_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            repro.Study("bad").axis("backend", ["gpu"])

    def test_backend_axis_requires_names_not_instances(self):
        with pytest.raises(ValueError, match="kernel names"):
            repro.Study("bad").axis("backend", [get_backend("scipy")])

    def test_study_round_trips_backend_axis(self, tmp_path):
        from repro.api.study import Study

        study = (Study("kernels")
                 .axis("backend", ["reference", "scipy"])
                 .fix(uid=2213, scale=64, reps=1, s=4))
        path = tmp_path / "spec.json"
        study.save(path)
        reloaded = Study.load(path)
        assert [t.task_hash() for t in reloaded.tasks()] == [
            t.task_hash() for t in study.tasks()
        ]

    def test_taskspec_backend_validated_and_hashed(self):
        from repro.campaign.spec import TaskSpec

        base = dict(experiment="t", uid=2213, scale=64,
                    scheme="abft-correction", alpha=0.0625, s=4)
        assert TaskSpec(**base).backend == "reference"
        assert (TaskSpec(**base, backend="scipy").task_hash()
                != TaskSpec(**base).task_hash())
        with pytest.raises(ValueError, match="unknown backend"):
            TaskSpec(**base, backend="gpu")
        rt = TaskSpec.from_json(TaskSpec(**base, backend="scipy").to_json())
        assert rt.backend == "scipy"

    def test_campaign_executes_backend_axis_end_to_end(self):
        study = (repro.Study("kernels-e2e")
                 .axis("backend", ["reference", "scipy"])
                 .fix(uid=2213, scale=64, reps=2, s=4, alpha=1 / 16))
        result = study.run(jobs=1)
        points = result.points()
        assert [p.backend for p in points] == ["reference", "scipy"]
        # Same physics parameters, same fault streams: both backends
        # must converge; simulated times agree (rounding-robust since
        # the simulated clock counts iterations, not floats).
        assert all(p.stats.convergence_rate == 1.0 for p in points)
        assert points[0].stats.mean_faults == points[1].stats.mean_faults

    def test_preset_campaign_carries_backend(self):
        study = repro.Study.table1(scale=64, reps=1, uids=[2213],
                                   s_span=0, backend="scipy")
        assert {t.backend for t in study.tasks()} == {"scipy"}

    def test_report_groups_by_backend(self, tmp_path):
        # A backend-comparison store must not average the kernels into
        # one row — backend is part of the report's group key.
        from repro.api.report import summarize_store

        store = tmp_path / "kernels.jsonl"
        study = (repro.Study("kernels-report")
                 .axis("backend", ["reference", "scipy"])
                 .fix(uid=2213, scale=64, reps=1, s=4))
        study.run(jobs=1, store=store)
        summary = summarize_store(store)
        assert [g.backend for g in summary.groups] == ["reference", "scipy"]


class TestCli:
    def test_solve_backend_flag(self, capsys):
        from repro.api.cli import main

        code = main(["solve", "--scale", "64", "--alpha", "0", "--backend",
                     "scipy", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        import json

        assert json.loads(out)["backend"] == "scipy"

    def test_solve_unknown_backend_is_usage_error(self, capsys):
        from repro.api.cli import main

        assert main(["solve", "--backend", "gpu"]) == 2

    def test_table1_backend_flag_smoke(self, capsys):
        from repro.api.cli import main

        code = main(["table1", "--scale", "64", "--reps", "1", "--uids",
                     "2213", "--s-span", "0", "--jobs", "1",
                     "--backend", "scipy"])
        assert code == 0
        assert "2213" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["reference", "scipy"])
    def test_solve_flag_runs_every_shipped_backend(self, name, capsys):
        import json

        from repro.api.cli import main

        assert main(["solve", "--n", "64", "--alpha", "0", "--backend", name,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == name and report["converged"]

    @pytest.mark.parametrize("command", ["solve", "table1", "figure1"])
    def test_backend_help_lists_the_shipped_backends(self, command, capsys):
        from repro.api.cli import main

        assert main([command, "--help"]) == 0
        entry = capsys.readouterr().out.split("--backend BACKEND")[-1].split("--")[0]
        assert " ".join(entry.split()) == "kernel: reference (bit-identical default) or scipy"

    def test_scipy_unavailable_hint_names_a_shipped_fallback(self):
        from repro.backends import scipy_unavailable

        msg = str(scipy_unavailable("blocked"))
        assert "pip install scipy" in msg and "'reference'" in msg
        assert "threaded" not in msg and "numba" not in msg


# ---------------------------------------------------------------------------
# corrupted-structure grid, run against every backend
# ---------------------------------------------------------------------------

#: Directed corruptions covering all three matrix arrays the fault model
#: can strike.  Every case dirties the structure stamp, so both kernels
#: must produce the *bits* of the reference guarded kernel.
CORRUPTIONS = {
    "colid_oob": lambda a: a.colid.__setitem__(3, a.ncols + 17),
    "colid_negative": lambda a: a.colid.__setitem__(5, -3),
    "val_large": lambda a: a.val.__setitem__(7, a.val[7] + 1e6),
    "val_nan": lambda a: a.val.__setitem__(2, np.nan),
    "rowidx_oob": lambda a: a.rowidx.__setitem__(3, a.nnz + 50),
    "rowidx_negative": lambda a: a.rowidx.__setitem__(2, -5),
    "rowidx_nonmonotone": lambda a: a.rowidx.__setitem__(4, int(a.rowidx[7]) + 3),
    "rowidx_equal_starts": lambda a: a.rowidx.__setitem__(4, int(a.rowidx[5])),
    "rowidx_shifted_boundary": lambda a: a.rowidx.__setitem__(
        4, (int(a.rowidx[3]) + int(a.rowidx[5])) // 2
    ),
}


@pytest.fixture(params=sorted(available_backends()))
def any_backend(request):
    """The shared object of either kernel."""
    return get_backend(request.param)


class TestAllBackendsCorruptionGrid:
    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_corrupted_product_bit_identical(self, any_backend, kind):
        a = stamped(stencil_spd(144, kind="cross", radius=2))
        CORRUPTIONS[kind](a)
        a.mark_structure_dirty()
        x = np.random.default_rng(21).standard_normal(a.ncols)
        y_ref = spmv(a, x)
        y = spmv(a, x, backend=any_backend)
        assert np.array_equal(y, y_ref, equal_nan=True)

    def test_fault_free_solve_runs_on_every_backend(self, any_backend):
        a = stencil_spd(100, kind="cross", radius=1)
        b = make_rhs(a)
        report = repro.solve(a, b, backend=any_backend.name, eps=1e-8)
        assert report.converged
        ref = repro.solve(a, b, eps=1e-8)
        assert report.iterations == ref.iterations
        assert report.time_units == ref.time_units


# ---------------------------------------------------------------------------
# the kernel suite, run against every backend
# ---------------------------------------------------------------------------


def _random_csr(rng, nrows, ncols, max_row):
    """Random CSR with row lengths up to ``max_row`` (0 allowed)."""
    lens = rng.integers(0, max_row + 1, size=nrows)
    rowidx = np.zeros(nrows + 1, dtype=np.int64)
    rowidx[1:] = np.cumsum(lens)
    nnz = int(rowidx[-1])
    colid = rng.integers(0, ncols, size=nnz).astype(np.int64)
    val = rng.standard_normal(nnz)
    return CSRMatrix(val, colid, rowidx, (nrows, ncols))


def assert_substitutes(backend, y, y_ref):
    """A stamped product: the reference kernel reproduces its own bits,
    SciPy's agrees with it to rounding."""
    if backend.name == "reference":
        assert np.array_equal(y, y_ref)
    else:
        np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-13)


class TestCleanKernelOnEveryBackend:
    """Structure-clean products, where ``scipy`` uses SciPy's kernel."""

    def test_stencil_products(self, any_backend):
        a = stamped(stencil_spd(256, kind="box", radius=2))
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.standard_normal(a.ncols)
            assert_substitutes(any_backend, any_backend.spmv(a, x), spmv(a, x))

    def test_short_and_empty_rows(self, any_backend):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = stamped(_random_csr(rng, 60, 40, 10))
            x = rng.standard_normal(a.ncols)
            y = any_backend.spmv(a, x)
            assert_substitutes(any_backend, y, spmv(a, x))
            assert np.all(y[np.diff(a.rowidx) == 0] == 0.0)

    def test_wide_rows(self, any_backend):
        rng = np.random.default_rng(3)
        a = stamped(_random_csr(rng, 25, 80, 600))
        assert int(np.diff(a.rowidx).max()) > 128
        x = rng.standard_normal(a.ncols)
        assert_substitutes(any_backend, any_backend.spmv(a, x), spmv(a, x))

    def test_out_buffer_is_the_returned_storage(self, any_backend):
        a = stamped(stencil_spd(49, kind="cross", radius=1))
        x = np.random.default_rng(4).standard_normal(a.ncols)
        out = np.full(a.nrows, np.nan)
        y = any_backend.spmv(a, x, out=out)
        assert y is out
        assert_substitutes(any_backend, out, spmv(a, x))

    @pytest.mark.parametrize("alias", ["out=x", "shifted view"])
    def test_out_aliasing_x_gives_the_product_of_x(self, any_backend, alias):
        # The compiled kernel accumulates into a zeroed out: zeroing an
        # out that is x (or overlaps it) must not clear the input first.
        a = stamped(stencil_spd(16, kind="cross", radius=1))
        x0 = np.random.default_rng(7).standard_normal(a.ncols)
        want = spmv(a, x0.copy())
        if alias == "out=x":
            x = out = x0.copy()
        else:
            buf = np.concatenate([x0, [np.nan]])
            x, out = buf[:-1], buf[1:]
        y = any_backend.spmv(a, x, out=out)
        assert y is out
        assert_substitutes(any_backend, y, want)

    def test_empty_matrix_is_zero(self, any_backend):
        empty = stamped(CSRMatrix(
            np.zeros(0), np.zeros(0, dtype=np.int64),
            np.zeros(4, dtype=np.int64), (3, 3),
        ))
        assert np.array_equal(any_backend.spmv(empty, np.ones(3)), np.zeros(3))
        out = np.full(3, np.nan)
        assert np.array_equal(any_backend.spmv(empty, np.ones(3), out=out), np.zeros(3))

    def test_non_finite_values_propagate(self, any_backend):
        # A struck value that overflowed is the silent error ABFT must
        # see: no backend may swallow it, and only its row is hit.
        a = stamped(stencil_spd(49, kind="cross", radius=1))
        a.val[int(a.rowidx[3])] = np.inf
        a.val[int(a.rowidx[10]) + 1] = np.nan
        x = np.random.default_rng(5).uniform(0.5, 1.5, a.ncols)
        y, y_ref = any_backend.spmv(a, x), spmv(a, x)
        assert np.isposinf(y[3]) and np.isnan(y[10])
        assert np.array_equal(np.isfinite(y), np.isfinite(y_ref))
        finite = np.isfinite(y_ref)
        assert_substitutes(any_backend, y[finite], y_ref[finite])

    def test_inplace_val_strike_is_read(self, any_backend):
        # A val strike leaves the stamp armed: the backend must read the
        # struck word itself, not a cached operator.
        a = stamped(stencil_spd(64, kind="cross", radius=1))
        x = np.ones(a.ncols)
        before = any_backend.spmv(a, x).copy()
        a.val[int(a.rowidx[2])] += 1000.0
        after = any_backend.spmv(a, x)
        assert after[2] == pytest.approx(before[2] + 1000.0)
        assert_substitutes(any_backend, after, spmv(a, x))

class TestGuardedKernelOnEveryBackend:
    """Unstamped products: both kernels yield the wild-read kernel's bits."""

    def test_random_rowidx_fuzz(self, any_backend):
        rng = np.random.default_rng(12)
        a0 = stencil_spd(100, kind="cross", radius=2)
        x = rng.standard_normal(a0.ncols)
        for _ in range(40):
            a = stamped(a0.copy())
            pos = int(rng.integers(0, a.rowidx.size))
            a.rowidx[pos] = int(rng.integers(-a.nnz, 2 * a.nnz))
            a.mark_structure_dirty()
            assert np.array_equal(any_backend.spmv(a, x), spmv(a, x))

    def test_wild_reads_with_wide_rows(self, any_backend):
        rng = np.random.default_rng(13)
        a = stamped(_random_csr(rng, 20, 60, 400))
        a.colid[7] = a.ncols + 1000
        a.colid[11] = -99
        a.mark_structure_dirty()
        x = rng.standard_normal(a.ncols)
        assert np.array_equal(any_backend.spmv(a, x), spmv(a, x))

    def test_restamp_after_repair_returns_to_the_clean_product(self, any_backend):
        a = stamped(stencil_spd(81, kind="cross", radius=1))
        x = np.random.default_rng(14).standard_normal(a.ncols)
        clean = spmv(a, x).copy()
        original = int(a.colid[9])
        a.colid[9] = original + 3 * a.ncols + 1  # wild, reads one column over
        a.mark_structure_dirty()
        assert np.array_equal(any_backend.spmv(a, x), spmv(a, x))
        assert not np.array_equal(any_backend.spmv(a, x), clean)
        a.colid[9] = original
        a.assume_clean_structure()
        assert_substitutes(any_backend, any_backend.spmv(a, x), clean)


class TestProtectedProductOnEveryBackend:
    """The guarded path at the ABFT level: status, repair and output of a
    protected product on a struck matrix do not depend on the kernel."""

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_struck_protected_product_bit_identical(self, any_backend, kind):
        from repro.abft.checksums import compute_checksums

        src = stencil_spd(144, kind="cross", radius=2)
        cks = compute_checksums(src, nchecks=2)
        x = np.random.default_rng(22).standard_normal(src.ncols)
        runs = []
        for backend in (None, any_backend):
            a = stamped(src.copy())
            CORRUPTIONS[kind](a)
            a.mark_structure_dirty()
            with np.errstate(all="ignore"):
                res = protected_spmv(a, x.copy(), cks, backend=backend)
            runs.append((res.status, res.correction, res.y.tobytes(),
                         a.val.tobytes(), a.colid.tobytes(), a.rowidx.tobytes()))
        assert runs[0] == runs[1]

@pytest.mark.parametrize("name", ["scipy"])
def test_faulty_runs_face_the_reference_strike_stream(name, small_system):
    # The kernel does not enter the seed derivation.
    a, b = small_system
    cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
    ref = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=13)
    run = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=13, backend=name)
    assert run.mean_faults == ref.mean_faults
    assert run.convergence_rate == ref.convergence_rate == 1.0


# ---------------------------------------------------------------------------
# SciPy that cannot be imported, and names no longer shipped
# ---------------------------------------------------------------------------


@pytest.fixture
def scipy_missing(monkeypatch):
    """A process in which ``import scipy`` fails (``find_spec`` finds
    nothing); the per-combination name check of task specs is cleared
    on both sides, so neither an earlier pass nor this failure leaks."""
    from repro.campaign.spec import _check_names

    monkeypatch.setitem(sys.modules, "scipy", None)
    _check_names.cache_clear()
    yield
    _check_names.cache_clear()


class TestUnavailableBackend:
    """Naming ``scipy`` where SciPy cannot load fails loudly, before any
    work, with the install hint — never a silent reference fallback."""

    HINT = "backend 'scipy' requires the scipy package"

    def test_get_backend_surfaces_unavailable(self, scipy_missing):
        with pytest.raises(ValueError, match="pip install scipy"):
            get_backend("scipy")

    def test_study_axis_rejects_with_clear_error(self, scipy_missing):
        with pytest.raises(ValueError, match=self.HINT):
            repro.Study("dep").axis("backend", ["scipy"])

    def test_solve_rejects_with_clear_error(self, scipy_missing, small_system):
        a, b = small_system
        with pytest.raises(ValueError, match=self.HINT):
            repro.solve(a, b, backend="scipy")

    def test_taskspec_rejects_with_clear_error(self, scipy_missing):
        from repro.campaign.spec import TaskSpec

        with pytest.raises(ValueError, match=self.HINT):
            TaskSpec(experiment="dep", uid=2213, scale=64, scheme="abft-correction",
                     alpha=0.01, s=4, backend="scipy")

    def test_cli_flag_is_usage_error(self, scipy_missing, capsys):
        from repro.api.cli import main

        assert main(["solve", "--scale", "64", "--backend", "scipy"]) == 2
        assert self.HINT in capsys.readouterr().err


def _store_of(path, *backends):
    """A sealed JSONL store at ``path``: one golden record per backend
    name, its ``task.backend`` rewritten to that name."""
    from repro.store.integrity import seal_text

    golden = pathlib.Path(__file__).parent / "golden" / "stores" / "parent.jsonl"
    template = json.loads(golden.read_text().splitlines()[0])
    lines = []
    for name in backends:
        record = dict(template, task=dict(template["task"], backend=name))
        record["hash"] = hashlib.sha256(name.encode()).hexdigest()
        lines.append(seal_text(record))
    path.write_text("\n".join(lines) + "\n")
    return path


def unknown(name):
    """The one message every entry point gives for an unknown backend."""
    return f"unknown backend '{name}'; available: reference, scipy"


class TestRetiredBackendNames:
    """``numba``, ``threaded`` and ``dense`` are no longer shipped: naming
    them is an unknown backend, while stores holding their records still
    read (the read path never resolves backend names)."""

    UNKNOWN_DENSE = "unknown backend 'dense'; available: reference, scipy"
    RETIRED = ("dense", "numba", "threaded")

    def test_solve_and_cli_reject_them_as_unknown(self, small_system, capsys):
        from repro.api.cli import main

        a, b = small_system
        with pytest.raises(ValueError, match="unknown backend 'threaded'; "
                           "available: reference, scipy"):
            repro.solve(a, b, backend="threaded")
        assert main(["solve", "--scale", "64", "--backend", "numba"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'numba'" in err
        assert "available: reference, scipy" in err

    def test_store_of_their_records_still_reports(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api.report import summarize_store

        store = _store_of(tmp_path / "retired.jsonl", "numba", "threaded")
        assert [g.backend for g in summarize_store(store).groups] == ["numba", "threaded"]
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "numba" in out and "threaded" in out
        assert main(["store", "info", str(store), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["records"] == 2

    def test_dense_store_reports_but_runs_nothing(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api.report import summarize_store
        from repro.campaign.spec import TaskSpec

        store = _store_of(tmp_path / "dense.jsonl", "dense")
        assert [g.backend for g in summarize_store(store).groups] == ["dense"]
        assert main(["report", str(store)]) == 0
        assert "dense" in capsys.readouterr().out

        with pytest.raises(ValueError) as ei:
            TaskSpec(experiment="figure1", uid=2213, scale=64, scheme="abft-correction",
                     alpha=0.01, s=4, backend="dense")
        assert str(ei.value) == self.UNKNOWN_DENSE

        spec = tmp_path / "dense-study.json"
        spec.write_text(json.dumps({
            "study": "dense", "kind": "axes", "axes": {"s": [2, 4]},
            "fixed": {"uid": 2213, "scale": 64, "reps": 1, "backend": "dense"},
            "metrics": ["mean_time"],
        }))
        assert main(["study", "run", str(spec), "--store", str(store), "--resume"]) == 2
        assert capsys.readouterr().err.count(self.UNKNOWN_DENSE) == 1


    @pytest.mark.parametrize("name", RETIRED)
    def test_registry_refuses_them_naming_the_shipped_ones(self, name):
        with pytest.raises(ValueError) as ei:
            get_backend(name)
        assert str(ei.value) == unknown(name)

    @pytest.mark.parametrize("name", RETIRED)
    def test_solve_refuses_them_before_work(self, name, small_system):
        a, b = small_system
        with pytest.raises(ValueError) as ei:
            repro.solve(a, b, backend=name)
        assert str(ei.value) == unknown(name)

    @pytest.mark.parametrize("name", RETIRED)
    def test_study_refuses_them_on_the_axis_and_fixed(self, name):
        for build in (lambda: repro.Study("retired").axis("backend", [name]),
                      lambda: repro.Study("retired").fix(backend=name)):
            with pytest.raises(ValueError) as ei:
                build()
            assert str(ei.value) == unknown(name)

    @pytest.mark.parametrize("name", RETIRED)
    def test_taskspec_refuses_them(self, name):
        from repro.campaign.spec import TaskSpec

        with pytest.raises(ValueError) as ei:
            TaskSpec(experiment="figure1", uid=2213, scale=64, scheme="abft-correction",
                     alpha=0.01, s=4, backend=name)
        assert str(ei.value) == unknown(name)

    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize("command", ["solve", "table1", "figure1"])
    def test_every_backend_flag_refuses_them(self, command, name, capsys):
        from repro.api.cli import main

        assert main([command, "--scale", "64", "--backend", name]) == 2
        captured = capsys.readouterr()
        assert captured.err.count(unknown(name)) == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "url", ["{}.jsonl", "sharded:{}.d", "sqlite:{}.db"], ids=["jsonl", "sharded", "sqlite"],
    )
    def test_every_store_format_reports_their_records(self, url, tmp_path, capsys):
        from repro.api.cli import main

        src = _store_of(tmp_path / "retired.jsonl", *self.RETIRED)
        dst = url.format(tmp_path / "copy")
        assert main(["store", "migrate", str(src), dst]) == 0
        capsys.readouterr()
        assert main(["report", dst, "--json"]) == 0
        groups = json.loads(capsys.readouterr().out)["groups"]
        assert sorted(g["backend"] for g in groups) == sorted(self.RETIRED)


# ---------------------------------------------------------------------------
# the one routing rule, on generated matrices
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _spied_csr_matvec():
    """SciPy's bound ``csr_matvec`` behind a call counter for the
    duration of the block; yields the real kernel and the counter."""
    from repro.sparse import _scipy

    real = _scipy.csr_matvec()
    calls = []

    def spy(nrows, ncols, rowidx, colid, val, x, y):
        calls.append(1)
        # A struck index would read or write out of bounds: refuse it
        # here, so a routing bug fails the assertion instead of the process.
        if (rowidx[0] == 0 and np.all(np.diff(rowidx) >= 0) and rowidx[-1] == val.size
                and np.all((colid >= 0) & (colid < ncols))):
            real(nrows, ncols, rowidx, colid, val, x, y)

    _scipy._csr_matvec = spy
    try:
        yield real, calls
    finally:
        _scipy._csr_matvec = real


@st.composite
def routed_products(draw):
    """A random CSR matrix (rows of 0..5 entries), an input with
    non-finite entries allowed, and — unless the draw is clean — strikes
    on ``colid`` / ``rowidx`` (``rowidx[0]`` included) that may point
    far outside the arrays."""
    n = draw(st.integers(1, 16))
    ncols = draw(st.integers(1, 16))
    lens = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    rowidx = np.zeros(n + 1, dtype=np.int64)
    rowidx[1:] = np.cumsum(lens)
    nnz = int(rowidx[-1])
    colid = np.array(draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)),
                     dtype=np.int64)
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    val = np.array(draw(st.lists(finite, min_size=nnz, max_size=nnz)), dtype=np.float64)
    entry = st.one_of(finite, st.sampled_from([np.nan, np.inf, -np.inf]))
    x = np.array(draw(st.lists(entry, min_size=ncols, max_size=ncols)), dtype=np.float64)
    a = CSRMatrix(val, colid, rowidx, (n, ncols))
    wild = st.one_of(
        st.sampled_from([-1, -(2**62), 2**62, n, ncols, nnz, nnz + 1]),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-3, 3).map(lambda k: max(n, ncols, nnz) + k),
    )
    targets = [("rowidx", n + 1)] + ([("colid", nnz)] if nnz else [])
    strikes = draw(st.lists(
        st.sampled_from(targets).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.integers(0, t[1] - 1), wild)),
        max_size=3,
    ))
    for name, pos, value in strikes:
        getattr(a, name)[pos] = value
    if strikes:
        a.mark_structure_dirty()
    else:
        a.assume_clean_structure()
    return a, x


def _bits(y):
    return np.ascontiguousarray(y).tobytes()


class TestRoutingProperty:
    """The routing rule of :func:`repro.sparse.spmv.spmv_kernel`, held
    on generated matrices: the only per-product difference between the
    two kernels is SciPy's kernel on a stamped matrix."""

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(routed_products())
    def test_one_rule_routes_every_product(self, product):
        a, x = product
        scipy = get_backend("scipy")
        with np.errstate(all="ignore"), _spied_csr_matvec() as (real, calls):
            ref = spmv(a, x)
            ys = [spmv(a, x, backend="scipy"), scipy.spmv(a, x)]
            # out may alias x: the kernel reads x before it writes out
            for call in (lambda v: spmv(a, v, out=v, backend="scipy"),
                         lambda v: scipy.spmv(a, v, out=v)):
                v = x.copy() if a.nrows == a.ncols else None
                if v is not None:
                    y = call(v)
                    assert y is v
                    ys.append(y)
            if a.structure_clean:
                want = np.zeros(a.nrows)
                real(a.nrows, a.ncols, a.rowidx, a.colid, a.val, x, want)
                assert calls or not a.nnz  # SciPy's kernel did the clean products
            else:
                # Memory safety: a struck index never reaches the
                # compiled kernel, which does no bounds checking.
                want = ref
                assert calls == []
        for y in ys:
            assert _bits(y) == _bits(want)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from(["cg", "bicgstab", "pcg"]))
    def test_kernels_share_checksums_not_trajectories(self, seed, method):
        from repro.abft.checksums import _CACHE, compute_checksums
        from repro.resilience import run_ft_method
        from repro.sparse import random_spd

        a = random_spd(40, 0.15, seed=seed)
        b = make_rhs(a)
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=4)
        ws = SolveWorkspace()

        def solve(backend, workspace):
            return run_ft_method(method, a, b, cfg, alpha=0.0, eps=1e-10, maxiter=25,
                                 workspace=workspace, backend=backend)

        counts = [METRICS.count(f"engine.backend.{k}") for k in ("reference", "scipy")]
        solve("reference", ws)
        warmed = ws._trajectory
        cks = _CACHE[a][(2, 1.0)]
        got = solve("scipy", ws)
        assert [METRICS.count(f"engine.backend.{k}") for k in ("reference", "scipy")] == [
            counts[0] + 1, counts[1] + 1]
        # one checksum set for both kernels, with the reference bits
        assert list(_CACHE[a]) == [(2, 1.0)] and _CACHE[a][(2, 1.0)] is cks
        fresh = compute_checksums(a, nchecks=2)
        assert _bits(cks.column_checksums) == _bits(fresh.column_checksums)
        assert cks.shift == fresh.shift
        # the scipy solve keyed a memo of its own kernel …
        assert ws._trajectory is not warmed
        assert ws._trajectory.matvec is kernel_matvec("scipy")
        assert warmed.matvec is None
        # … and returns what a memo-free scipy solve returns
        oracle = solve("scipy", None)
        assert _bits(got.x) == _bits(oracle.x)
        assert float(got.time_units).hex() == float(oracle.time_units).hex()
