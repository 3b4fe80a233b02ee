"""The pluggable kernel-backend axis (:mod:`repro.backends`).

Locks the three contracts the backend axis stands on:

1. **Reference is the oracle.** ``backend="reference"`` — explicit,
   default, by instance — is bit-identical to the pre-backend code
   path on every entry point (``spmv``, ``protected_spmv``,
   ``solve``, ``repeat_run``).
2. **Guarded paths are backend-invariant.** Any matrix without the
   ``structure_clean`` stamp routes through the reference kernel on
   every backend, so fault emulation and ABFT detection semantics
   cannot depend on the backend choice.
3. **SciPy is numerically equivalent where it substitutes.** On
   structure-clean products it agrees with the reference kernel to
   rounding, and fault-free solves on the paper suite produce
   identical convergence histories (same iterations, same events).

The seam an out-of-tree backend plugs into (``register_backend``,
``BaseBackend``, ``prepare()``) is locked by a registered stand-in,
``own-kernel`` (``tests/conftest.py``), whose own clean kernel carries
the reference bits: every golden trajectory replays byte-identically
through it, and every per-backend suite runs against it too.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import repro
from repro.abft.spmv import SpmvStatus, protected_spmv
from repro.backends import (
    BackendUnavailableError,
    ReferenceBackend,
    ScipyBackend,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends import _FACTORIES, _INSTANCES
from repro.perf import SolveWorkspace
from repro.sim.engine import make_rhs, repeat_run
from repro.sim.matrices import get_matrix
from repro.sparse import CSRMatrix, stencil_spd
from repro.sparse.spmv import spmv
from repro.core.methods import Method, Scheme, SchemeConfig


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

    def test_backend_available_probe_never_raises(self):
        assert backend_available("reference")
        assert backend_available("scipy")
        assert not backend_available("cuda")

    def test_get_backend_by_name_is_shared_instance(self):
        assert get_backend("scipy") is get_backend("scipy")
        assert isinstance(get_backend("reference"), ReferenceBackend)

    def test_get_backend_passes_instances_through(self):
        be = ScipyBackend()
        assert get_backend(be) is be

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="reference"):
            get_backend("cuda")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_resolve_reference_to_none(self):
        # The fast-path contract: every spelling of "reference"
        # resolves to None so hot loops skip backend dispatch entirely.
        assert resolve_backend(None) is None
        assert resolve_backend("reference") is None
        assert resolve_backend(ReferenceBackend()) is None
        assert resolve_backend("scipy") is get_backend("scipy")

    def test_register_custom_backend(self):
        class Doubling(ReferenceBackend):
            name = "doubling"

            def spmv(self, a, x, *, out=None, scratch=None):
                return 2.0 * super().spmv(a, x, out=None, scratch=scratch)

        register_backend("doubling", Doubling)
        try:
            a = stamped(stencil_spd(25, kind="cross", radius=1))
            x = np.ones(a.ncols)
            assert np.array_equal(
                spmv(a, x, backend="doubling"), 2.0 * spmv(a, x)
            )
            with pytest.raises(ValueError, match="already registered"):
                register_backend("doubling", Doubling)
        finally:
            _FACTORIES.pop("doubling", None)
            _INSTANCES.pop("doubling", None)

    def test_shipped_names_protected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference", ReferenceBackend)

    def test_replaced_reference_honoured_on_every_dispatch_path(self):
        # replace=True on "reference" must change name-based dispatch
        # everywhere, not only on entry points that call get_backend.
        class Doubling(ReferenceBackend):
            def spmv(self, a, x, *, out=None, scratch=None):
                return 2.0 * super().spmv(a, x, out=None, scratch=scratch)

        original = _FACTORIES["reference"]
        register_backend("reference", Doubling, replace=True)
        try:
            a = stamped(stencil_spd(25, kind="cross", radius=1))
            x = np.ones(a.ncols)
            raw = spmv(a, x)
            assert np.array_equal(spmv(a, x, backend="reference"), 2.0 * raw)
            assert resolve_backend("reference") is get_backend("reference")
        finally:
            register_backend("reference", original, replace=True)


class TestSpmvDispatch:
    def test_reference_backend_bit_identical(self, suite_matrix):
        x = np.random.default_rng(3).standard_normal(suite_matrix.ncols)
        base = spmv(suite_matrix, x)
        assert np.array_equal(spmv(suite_matrix, x, backend="reference"), base)
        assert np.array_equal(spmv(suite_matrix, x, backend=None), base)
        assert np.array_equal(
            spmv(suite_matrix, x, backend=ReferenceBackend()), base
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


class TestBackendPrimitives:
    def test_checksum_products_match_column_sums(self, suite_matrix):
        from repro.sparse.norms import column_sums

        w = np.vstack([np.ones(suite_matrix.nrows),
                       np.arange(1.0, suite_matrix.nrows + 1.0)])
        for name in ("reference", "scipy"):
            prods = get_backend(name).checksum_products(suite_matrix, w)
            assert prods.shape == (2, suite_matrix.ncols)
            for i in range(2):
                assert np.array_equal(prods[i], column_sums(suite_matrix, weights=w[i]))

    def test_dot_and_norm(self):
        u = np.arange(5.0)
        v = np.ones(5)
        for name in ("reference", "scipy"):
            be = get_backend(name)
            assert be.dot(u, v) == float(u @ v)
            assert be.norm2(u) == float(np.linalg.norm(u))


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

    def test_workspace_backend_attribute_used(self, small_system):
        # SolveWorkspace(backend=...) supplies the default kernel axis;
        # an explicit backend on the entry point still wins.
        a, b = small_system
        ws = SolveWorkspace(backend="scipy")
        via_ws = repro.solve(a, b, eps=1e-8, reuse_workspace=ws)
        pinned = repro.solve(a, b, eps=1e-8, backend="scipy")
        assert via_ws.iterations == pinned.iterations
        assert via_ws.solution_sha256 == pinned.solution_sha256
        explicit = repro.solve(
            a, b, eps=1e-8, reuse_workspace=ws, backend="reference"
        )
        ref = repro.solve(a, b, eps=1e-8)
        assert explicit.solution_sha256 == ref.solution_sha256


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
        # On this grid the workspace hot path and the fresh path agree on
        # the scipy backend; in general they do not (the xfail below).
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP 3(c)")
    def test_scipy_fresh_and_workspace_solves_agree(self):
        # Under scipy a workspace rollback whose captured deltas name an
        # index word leaves the structure stamp down, even when the word
        # is pristine; the fresh path restores the stamp with the full
        # matrix.  Later products then take different kernels.  The day
        # the re-arm fix lands this passes, and the docs that state the
        # reference-only contract (solve, SolveWorkspace, DESIGN §4)
        # must change with it.
        a = stencil_spd(400, kind="cross", radius=2)
        b = make_rhs(a)
        for seed in range(4):
            kw = dict(
                scheme="abft-detection", faults=repro.FaultSpec(0.25, seed=seed),
                checkpoint=8, backend="scipy", eps=1e-6, record_history=False,
            )
            with np.errstate(all="ignore"):
                fresh = repro.solve(a, b, reuse_workspace=False, **kw)
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
        with pytest.raises(ValueError, match="registered names"):
            repro.Study("bad").axis("backend", [ScipyBackend()])

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
    def test_backend_help_lists_the_shipped_backends(self, command, own_kernel, capsys):
        # Built from the registry when printed: a registered backend
        # shows up, a deleted one cannot linger.
        from repro.api.cli import main

        assert main([command, "--help"]) == 0
        entry = capsys.readouterr().out.split("--backend BACKEND")[-1].split("--")[0]
        assert " ".join(entry.split()) == (
            "kernel backend: reference (bit-identical default), scipy, own-kernel"
        )

    def test_scipy_unavailable_hint_names_a_shipped_fallback(self):
        from repro.backends.scipy_backend import _unavailable

        msg = str(_unavailable("blocked"))
        assert "pip install scipy" in msg and "'reference'" in msg
        assert "threaded" not in msg and "numba" not in msg


# ---------------------------------------------------------------------------
# corrupted-structure grid, run against every backend
# ---------------------------------------------------------------------------

#: Directed corruptions covering all three matrix arrays the fault model
#: can strike.  Every case dirties the structure stamp, so every backend
#: must produce the *bits* of the reference guarded kernel by handing the
#: product to it.
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


@pytest.fixture(params=[*sorted(available_backends()), "own-kernel"])
def any_backend(request):
    """Every shipped backend, and the registered out-of-tree
    ``own-kernel`` (``tests/conftest.py``): the contracts below are the
    protocol's, not properties of the two kernels that ship."""
    if request.param == "own-kernel":
        return request.getfixturevalue("own_kernel")
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
        report = repro.solve(a, b, backend=any_backend, eps=1e-8)
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
    """A stamped product: the reference backend reproduces the kernel's
    bits, every other backend agrees with it to rounding."""
    if isinstance(backend, ReferenceBackend):
        assert np.array_equal(y, y_ref)
    else:
        np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-13)


class TestCleanKernelOnEveryBackend:
    """Structure-clean products, where a backend may use its own kernel."""

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

    def test_prepare_is_idempotent(self, any_backend):
        a = stamped(stencil_spd(64, kind="cross", radius=1))
        x = np.random.default_rng(6).standard_normal(a.ncols)
        first = any_backend.spmv(a, x).copy()
        any_backend.prepare(a)
        any_backend.prepare(a)
        assert np.array_equal(any_backend.spmv(a, x), first)

    def test_satisfies_the_protocol_under_its_registered_name(self, any_backend):
        from repro.backends import KernelBackend

        assert isinstance(any_backend, KernelBackend)
        assert get_backend(any_backend.name) is any_backend


class TestGuardedKernelOnEveryBackend:
    """Unstamped products: every backend yields the reference kernel's bits."""

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
    protected product on a struck matrix do not depend on the backend."""

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

    def test_checksums_through_the_backend_are_the_reference_bits(self, any_backend):
        from repro.abft.checksums import compute_checksums

        a = get_matrix(2213, 48)
        ref = compute_checksums(a, nchecks=2)
        via = compute_checksums(a, nchecks=2, backend=any_backend)
        assert np.array_equal(via.column_checksums, ref.column_checksums)
        assert via.shift == ref.shift
        assert np.array_equal(via.rowidx_checksums, ref.rowidx_checksums)
        assert np.array_equal(via.tolerance.thresholds(1.0), ref.tolerance.thresholds(1.0))


@pytest.mark.parametrize("name", ["scipy", "own-kernel"])
def test_faulty_runs_face_the_reference_strike_stream(name, small_system, request):
    # The backend does not enter the seed derivation.
    if name == "own-kernel":
        request.getfixturevalue("own_kernel")
    a, b = small_system
    cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
    ref = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=13)
    run = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=13, backend=name)
    assert run.mean_faults == ref.mean_faults
    assert run.convergence_rate == ref.convergence_rate == 1.0


# ---------------------------------------------------------------------------
# a registered backend that cannot run here, and names no longer shipped
# ---------------------------------------------------------------------------


@pytest.fixture
def unavailable_backend():
    """A registered stand-in whose factory raises, as an out-of-tree
    backend does without its dependency."""

    def factory():
        raise BackendUnavailableError(
            "backend 'needs-dep' requires the optional package needsdep; "
            "install it with `pip install needsdep`"
        )

    register_backend("needs-dep", factory)
    yield "needs-dep"
    _FACTORIES.pop("needs-dep", None)
    _INSTANCES.pop("needs-dep", None)


class TestUnavailableBackend:
    def test_get_backend_surfaces_unavailable(self, unavailable_backend):
        with pytest.raises(BackendUnavailableError, match="pip install needsdep"):
            get_backend(unavailable_backend)

    def test_backend_available_reports_false_without_raising(self, unavailable_backend):
        assert backend_available(unavailable_backend) is False

    def test_study_axis_rejects_with_clear_error(self, unavailable_backend):
        with pytest.raises(BackendUnavailableError, match="optional"):
            repro.Study("dep").axis("backend", [unavailable_backend])

    def test_solve_rejects_with_clear_error(self, unavailable_backend, small_system):
        a, b = small_system
        with pytest.raises(BackendUnavailableError, match="needs-dep"):
            repro.solve(a, b, backend=unavailable_backend)

    def test_cli_flag_is_usage_error(self, unavailable_backend, capsys):
        from repro.api.cli import main

        assert main(["solve", "--scale", "64", "--backend", unavailable_backend]) == 2
        assert "needs-dep" in capsys.readouterr().err


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
        assert backend_available(name) is False
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
# an out-of-tree backend, through the seam kept for one
# ---------------------------------------------------------------------------


_GOLD = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json").read_text()
)
#: One golden entry per (driver, scheme) pair.
_GOLD_ENTRIES = list({(e["driver"], e["scheme"]): e for e in _GOLD["entries"]}.values())


def _sha(v) -> str:
    return hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()


class TestOutOfTreeBackend:
    """A backend whose clean products carry the reference bits leaves
    every trajectory byte-identical: the engine's non-reference path
    (instance dispatch, ``prepare()``, deferral of struck products)
    adds nothing to the physics."""

    @pytest.mark.parametrize(
        "entry", _GOLD_ENTRIES,
        ids=lambda e: f"{e['driver']}-{e['scheme']}-a{e['alpha']}-seed{e['seed']}",
    )
    def test_golden_trajectories(self, own_kernel, entry):
        from repro.core import Method
        from repro.resilience import run_ft_method

        a = stencil_spd(529, kind="cross", radius=2)
        b = np.random.default_rng(_GOLD["rhs_seed"]).normal(size=a.nrows)
        cfg = SchemeConfig(
            Scheme(entry["scheme"]),
            checkpoint_interval=_GOLD["s"],
            verification_interval=entry["d"],
        )
        method = Method.CG if entry["driver"] == "ft_cg" else Method.BICGSTAB
        with np.errstate(all="ignore"):
            res = run_ft_method(
                method, a, b, cfg, alpha=entry["alpha"], rng=entry["seed"],
                eps=_GOLD["eps"], backend="own-kernel",
            )
        want = entry["result"]
        assert _sha(res.x) == want["x_sha256"]
        assert float(res.time_units).hex() == want["time_units"]
        assert float(res.residual_norm).hex() == want["residual_norm"]
        assert res.counters.rollbacks == want["counters"]["rollbacks"]
        assert res.counters.faults_injected == want["counters"]["faults_injected"]
        assert own_kernel.prepared == 1 and own_kernel.owned > 0

    @pytest.mark.parametrize("method,scheme,alpha", [
        (Method.CG, Scheme.ABFT_CORRECTION, 0.0),
        (Method.CG, Scheme.ABFT_CORRECTION, 0.2),
        (Method.CG, Scheme.ABFT_DETECTION, 0.2),
        (Method.BICGSTAB, Scheme.ABFT_CORRECTION, 0.2),
    ], ids=lambda v: getattr(v, "value", v))
    def test_protected_replays(self, own_kernel, method, scheme, alpha):
        from repro.resilience import run_ft_method

        a = stencil_spd(100, kind="cross", radius=1)
        b = make_rhs(a)
        cfg = SchemeConfig(scheme, checkpoint_interval=5)
        runs = []
        for backend in ("reference", own_kernel):
            with np.errstate(all="ignore"):
                runs.append(run_ft_method(method, a, b, cfg, alpha=alpha, rng=17,
                                          eps=1e-8, backend=backend))
        ref, own = runs
        assert _sha(own.x) == _sha(ref.x)
        assert float(own.time_units).hex() == float(ref.time_units).hex()
        assert float(own.residual_norm).hex() == float(ref.residual_norm).hex()
        assert (own.iterations, own.iterations_executed) == (
            ref.iterations, ref.iterations_executed)
        assert own.counters.faults_injected == ref.counters.faults_injected
        assert own.counters.rollbacks == ref.counters.rollbacks
        assert own.counters.detections == ref.counters.detections
        if alpha == 0.0:
            assert own_kernel.deferred == 0

    def test_study_axis_runs_it_by_name(self, own_kernel):
        study = (repro.Study("own-kernel")
                 .axis("backend", ["reference", "own-kernel"])
                 .fix(uid=2213, scale=64, reps=2, s=4, alpha=1 / 16))
        ref, own = study.run(jobs=1).points()
        assert own.backend == "own-kernel"
        assert own.stats == ref.stats
        assert own_kernel.owned > 0
