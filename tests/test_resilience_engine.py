"""Tests for the resilience engine, its plugins and the method axis."""

import itertools
import math
import struct

import numpy as np
import pytest

from repro.core import Method, Scheme, SchemeConfig
from repro.faults.injector import FaultInjector
from repro.resilience import (
    BiCGstabPlugin,
    CGPlugin,
    JacobiPCGPlugin,
    make_plugin,
    run_ft_method,
    run_protected,
)
from repro.sim.engine import make_rhs, repeat_run
from repro.obs import InMemoryTracer
from repro.perf import SolveWorkspace
from repro.sim.matrices import get_matrix
from repro.sparse import stencil_spd
from tests.spec.plain import jacobi_pcg


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(900, kind="cross", radius=2)
    return a, make_rhs(a)


def config(scheme, s=8, d=1):
    return SchemeConfig(scheme, checkpoint_interval=s, verification_interval=d)


class TestMethodEnum:
    def test_parse(self):
        assert Method.parse("cg") is Method.CG
        assert Method.parse("PCG") is Method.PCG
        assert Method.parse(Method.BICGSTAB) is Method.BICGSTAB

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown method"):
            Method.parse("gmres")

    def test_scheme_support(self):
        assert Method.CG.supports(Scheme.ONLINE_DETECTION)
        assert not Method.PCG.supports(Scheme.ONLINE_DETECTION)
        assert not Method.BICGSTAB.supports(Scheme.ONLINE_DETECTION)
        for m in Method:
            assert m.supports(Scheme.ABFT_DETECTION)
            assert m.supports(Scheme.ABFT_CORRECTION)

    def test_registry_covers_every_method(self):
        for m in Method:
            plugin = make_plugin(m)
            assert plugin.name == m.value


class TestDispatch:
    def test_run_ft_method_matches_wrappers(self, problem):
        a, b = problem
        cfg = config(Scheme.ABFT_CORRECTION)
        via_method = run_ft_method(Method.CG, a, b, cfg, alpha=0.1, rng=7, eps=1e-6)
        via_wrapper = run_protected(CGPlugin(), a, b, cfg, alpha=0.1, rng=7, eps=1e-6)
        assert via_method.time_units == via_wrapper.time_units
        np.testing.assert_array_equal(via_method.x, via_wrapper.x)

    def test_run_ft_method_accepts_strings(self, problem):
        a, b = problem
        cfg = config(Scheme.ABFT_DETECTION)
        r1 = run_ft_method("bicgstab", a, b, cfg, alpha=0.1, rng=3, eps=1e-6)
        r2 = run_protected(BiCGstabPlugin(), a, b, cfg, alpha=0.1, rng=3, eps=1e-6)
        assert r1.time_units == r2.time_units

    def test_plugins_are_single_use_fresh(self):
        assert make_plugin("cg") is not make_plugin("cg")

    @pytest.mark.parametrize("method", ["cg", "bicgstab", "pcg"])
    @pytest.mark.parametrize("alpha", [-0.1, float("nan"), float("inf")])
    def test_a_negative_or_non_finite_rate_is_refused(self, problem, method, alpha):
        # Before the check, -0.1 and NaN ran fault-free and reported
        # convergence; inf died in NumPy's Poisson draw.
        a, b = problem
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            run_ft_method(method, a, b, config(Scheme.ABFT_DETECTION), alpha=alpha, rng=1)


class TestFTPCG:
    @pytest.mark.parametrize("scheme", [Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION])
    def test_converges_without_faults(self, problem, scheme):
        a, b = problem
        res = run_ft_method("pcg", a, b, config(scheme), alpha=0.0, rng=0, eps=1e-6)
        assert res.converged
        assert res.residual_norm <= res.threshold
        assert res.counters.rollbacks == 0

    def test_matches_plain_pcg_iterations(self, problem):
        """Fault-free FT-PCG is plain Jacobi-PCG plus protection."""
        a, b = problem
        plain = jacobi_pcg(a, b, eps=1e-6)
        ft = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-6)
        assert ft.converged
        np.testing.assert_allclose(ft.x, plain.x, rtol=1e-6, atol=1e-8)

    def test_preconditioning_beats_plain_cg(self, problem):
        """The diagonal preconditioner must pay for itself in iterations."""
        a, b = problem
        ft_cg = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-6)
        ft_pcg = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-6)
        assert ft_pcg.iterations < ft_cg.iterations

    @pytest.mark.parametrize("scheme", [Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION])
    def test_converges_under_injection(self, problem, scheme):
        a, b = problem
        res = run_ft_method("pcg", a, b, config(scheme), alpha=0.1, rng=42, eps=1e-6)
        assert res.converged
        assert res.counters.faults_injected > 0
        assert res.residual_norm <= res.threshold

    def test_correction_forward_recovers(self, problem):
        a, b = problem
        res = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.25, rng=11, eps=1e-6)
        assert res.converged
        assert res.counters.total_corrections > 0
        assert res.counters.rollbacks < res.counters.total_corrections

    def test_detection_rolls_back(self, problem):
        a, b = problem
        res = run_ft_method("pcg", a, b, config(Scheme.ABFT_DETECTION), alpha=0.25, rng=11, eps=1e-6)
        assert res.converged
        assert res.counters.rollbacks > 0
        assert res.counters.total_corrections == 0

    def test_determinism(self, problem):
        a, b = problem
        r1 = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=5, eps=1e-6)
        r2 = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=5, eps=1e-6)
        assert r1.time_units == r2.time_units
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_input_matrix_never_mutated(self, problem):
        a, b = problem
        snap = a.copy()
        run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.3, rng=2, eps=1e-6)
        assert a.equals(snap)

    def test_online_scheme_rejected(self, problem):
        a, b = problem
        with pytest.raises(ValueError, match="ABFT"):
            run_ft_method("pcg", a, b, SchemeConfig(Scheme.ONLINE_DETECTION, verification_interval=4))

    def test_jacobi_minv_is_the_inverse_diagonal(self, problem):
        a, _ = problem
        ws = SolveWorkspace()
        ws.acquire_live(a)
        np.testing.assert_array_equal(ws.jacobi_minv(a), 1.0 / a.diagonal())

    def test_corrects_a_val_strike_on_suite_matrix(self, monkeypatch):
        """A corrupted ``val`` word in PCG's protected product (suite
        #1288) is repaired in place and the solve still converges."""
        a = get_matrix(1288, 32)
        b = make_rhs(a)
        draws = itertools.count()
        monkeypatch.setattr(
            FaultInjector,
            "sample_strikes",
            lambda self, **_: [("val", 7, 61)] if next(draws) == 3 else [],
        )
        res = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.5, eps=1e-8)
        assert res.converged and res.counters.rollbacks == 0
        assert res.counters.corrections == {"val": 1}

    def test_zero_diagonal_rejected(self):
        from repro.sparse import CSRMatrix

        dense = np.array([[0.0, 1.0], [1.0, 2.0]])
        a = CSRMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="zero-free diagonal"):
            run_ft_method("pcg", a, np.ones(2), config(Scheme.ABFT_DETECTION))

    def test_breakdown_sums(self, problem):
        a, b = problem
        res = run_ft_method("pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.15, rng=9, eps=1e-6)
        assert res.breakdown.total == pytest.approx(res.time_units)

    def test_tracer_records_recoveries(self, problem):
        a, b = problem
        tracer = InMemoryTracer()
        res = run_ft_method(
            "pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.3, rng=11, eps=1e-6, tracer=tracer
        )
        kinds = set(tracer.counts_by_kind())
        assert "checkpoint" in kinds
        if res.counters.total_corrections:
            assert "abft-correction" in kinds


class TestEngineGenerics:
    def test_run_protected_rejects_scheme_before_work(self, problem):
        a, b = problem
        with pytest.raises(ValueError, match="ABFT"):
            run_protected(
                BiCGstabPlugin(), a, b,
                SchemeConfig(Scheme.ONLINE_DETECTION, verification_interval=4),
            )

    def test_plugin_vector_registration_order(self, problem):
        """The injector registration order is part of the RNG contract."""
        assert list(_init_plugin(CGPlugin(), problem).vectors) == ["x", "r", "p", "q"]
        assert list(_init_plugin(BiCGstabPlugin(), problem).vectors) == [
            "x", "r", "r_hat", "p", "v", "s",
        ]
        assert list(_init_plugin(JacobiPCGPlugin(), problem).vectors) == [
            "x", "r", "p", "q", "z",
        ]

    def test_memory_words_scale_with_vector_count(self, problem):
        """λ = α/M must count each plugin's actual protected state."""
        a, b = problem
        cg_plugin = _init_plugin(CGPlugin(), problem)
        pcg_plugin = _init_plugin(JacobiPCGPlugin(), problem)
        assert len(pcg_plugin.vectors) == len(cg_plugin.vectors) + 1

    def test_max_time_units_bails(self, problem):
        a, b = problem
        res = run_ft_method(
            "pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-14,
            max_time_units=10.0,
        )
        assert res.time_units <= 13.0  # one iteration of slack

    def test_maxiter_bails(self, problem):
        a, b = problem
        res = run_ft_method(
            "pcg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-14, maxiter=7
        )
        assert res.iterations_executed == 7
        assert not res.converged


def _init_plugin(plugin, problem):
    a, b = problem
    ws = SolveWorkspace()
    plugin.init_state(a, ws.acquire_live(a), b, None, config(Scheme.ABFT_DETECTION), ws)
    return plugin


class TestRepeatRunMethodAxis:
    def test_cg_seeding_unchanged(self, problem):
        """method=cg must reproduce the historical seed derivation."""
        a, b = problem
        cfg = config(Scheme.ABFT_DETECTION)
        base = repeat_run(a, b, cfg, alpha=0.1, reps=2, base_seed=9, labels=("t", 1))
        via_enum = repeat_run(
            a, b, cfg, alpha=0.1, reps=2, base_seed=9, labels=("t", 1), method=Method.CG
        )
        via_str = repeat_run(
            a, b, cfg, alpha=0.1, reps=2, base_seed=9, labels=("t", 1), method="cg"
        )
        assert base == via_enum == via_str

    def test_methods_get_distinct_fault_streams(self, problem):
        a, b = problem
        cfg = config(Scheme.ABFT_DETECTION)
        kw = dict(alpha=0.1, reps=2, base_seed=9, labels=("t", 1))
        r_cg = repeat_run(a, b, cfg, method="cg", **kw)
        r_pcg = repeat_run(a, b, cfg, method="pcg", **kw)
        r_bi = repeat_run(a, b, cfg, method="bicgstab", **kw)
        assert len({r_cg.mean_time, r_pcg.mean_time, r_bi.mean_time}) == 3


class TestFinalResidual:
    """The accepted reliable check *is* the final residual: the engine
    does not recompute ``b − A·x`` on the x it just verified."""

    @pytest.fixture
    def reliable_products(self, monkeypatch):
        from repro.resilience import engine

        calls = []
        real = engine.spmv_kernel

        def counting(a, x, *args, **kwargs):
            calls.append(1)
            return real(a, x, *args, **kwargs)

        monkeypatch.setattr(engine, "spmv_kernel", counting)
        return calls

    @pytest.mark.parametrize("method", ["cg", "bicgstab", "pcg"])
    def test_one_reliable_product_per_convergence_check(
        self, problem, reliable_products, method
    ):
        a, b = problem
        res = run_ft_method(
            method, a, b, config(Scheme.ABFT_CORRECTION), alpha=0.05, eps=1e-6, rng=3
        )
        assert res.converged
        assert len(reliable_products) == res.counters.final_check_failures + 1
        # ... and the reused norm is the one an explicit product gives.
        from repro.sparse.spmv import spmv

        assert res.residual_norm == float(np.linalg.norm(b - spmv(a, res.x)))

    def test_exits_without_an_accepted_check_take_the_explicit_product(
        self, problem, reliable_products
    ):
        a, b = problem
        cfg = config(Scheme.ABFT_DETECTION)
        res = run_ft_method("cg", a, b, cfg, alpha=0.0, eps=1e-6, final_check=False)
        assert res.converged and len(reliable_products) == 1
        del reliable_products[:]
        capped = run_ft_method("cg", a, b, cfg, alpha=0.0, eps=1e-12, maxiter=3)
        assert not capped.converged and len(reliable_products) == 1
        del reliable_products[:]
        x = run_ft_method("cg", a, b, cfg, alpha=0.0, eps=1e-6).x
        del reliable_products[:]
        warm = run_ft_method("cg", a, b, cfg, alpha=0.0, eps=1e-3, x0=x)
        assert warm.iterations_executed == 0 and len(reliable_products) == 1


class TestScalarMathPremises:
    """The step loop takes norms as ``math.sqrt(float(v @ v))`` and tests
    Python floats with ``math.isfinite`` / ``math.sqrt``.  Those are
    the NumPy spellings' floats only while ``np.linalg.norm`` of a 1-D
    float64 vector stays ``sqrt(v.dot(v))`` and both square roots stay
    correctly rounded; a NumPy build where either premise breaks fails
    here rather than moving a trajectory."""

    @staticmethod
    def _vectors():
        rng = np.random.default_rng(21)
        for n in (0, 1, 2, 7, 16, 33, 100, 625, 4097):
            yield rng.normal(size=n)
            yield rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        for big in (1e300, -1e300, 1e-300, -1e-300, 1e154, 1e-160):
            yield np.full(9, big)
        for special in (np.inf, -np.inf, np.nan):
            v = rng.normal(size=12)
            v[5] = special
            yield v
        yield np.array([-0.0, 0.0, -0.0])

    def test_sqrt_of_the_dot_is_the_norm(self):
        for v in self._vectors():
            with np.errstate(all="ignore"):
                got = math.sqrt(float(v @ v))
                want = float(np.linalg.norm(v))
            assert struct.pack("<d", got) == struct.pack("<d", want), v

    def test_math_scalar_functions_agree_with_numpy(self):
        rng = np.random.default_rng(22)
        values = [0.0, -0.0, 1.0, 2.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, -1.0, -1e-300]
        values += (rng.random(200) * 10.0 ** rng.integers(-300, 300, size=200)).tolist()
        for value in values:
            for x in (value, np.float64(value)):
                assert math.isfinite(x) == bool(np.isfinite(x)), x
                if not (value >= 0.0 or math.isnan(value)):
                    continue  # math.sqrt raises below zero; r·r never is
                got = math.sqrt(x)
                want = float(np.sqrt(x))
                assert struct.pack("<d", got) == struct.pack("<d", want), x


class TestRetiredSpellings:
    """Each protected solve has one spelling: ``run_ft_method`` (or
    ``run_protected`` on a plugin), ``SolveResult``, ``tracer=`` and
    ``FaultInjector``.  The pre-engine aliases are gone, not shimmed."""

    RETIRED = ["run_ft_cg", "run_ft_bicgstab", "run_ft_pcg", "FTCGResult",
               "IterationFaultPlan", "CGTargets"]
    #: The plain solvers: a fault-free solve is ``repro.solve(a, b,
    #: faults=None)`` (or ``run_ft_method`` at ``alpha=0``).
    PLAIN_SOLVERS = [
        ("repro", "cg"),
        ("repro", "pcg"),
        ("repro", "jacobi_preconditioner"),
        ("repro.core", "CGResult"),
        ("repro.core", "jacobi_preconditioner"),
        ("repro.core", "ssor_preconditioner"),
        ("repro.core", "bicgstab"),
        ("repro.core", "cg_tolerance_threshold"),
    ]

    @pytest.mark.parametrize("name", RETIRED)
    def test_top_level_import_fails(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro import {name}", {})

    def test_batched_rep_loop_import_fails(self):
        with pytest.raises(ImportError):
            from repro.sim.engine import repeat_run_batched  # noqa: F401

    @pytest.mark.parametrize("package, name", PLAIN_SOLVERS)
    def test_plain_solvers_are_gone(self, package, name):
        import importlib

        with pytest.raises(ImportError):
            exec(f"from {package} import {name}", {})
        pkg = importlib.import_module(package)
        assert name not in pkg.__all__ and name not in dir(pkg)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.ft_cg",
            "repro.core.ft_krylov",
            "repro.faults.scenarios",
            "repro.core.cg",
            "repro.core.pcg",
            "repro.core.krylov",
        ],
    )
    def test_wrapper_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_packages_no_longer_list_them(self):
        import repro
        import repro.core
        import repro.faults

        for pkg in (repro, repro.core, repro.faults):
            assert not set(self.RETIRED) & set(dir(pkg)), pkg.__name__
            assert not set(self.RETIRED) & set(pkg.__all__), pkg.__name__

    def test_observer_kwarg_is_rejected(self, problem):
        a, b = problem
        with pytest.raises(TypeError, match="observer"):
            run_protected(
                CGPlugin(), a, b, config(Scheme.ABFT_DETECTION), observer=lambda ctx: None
            )

    def test_callerless_helpers_are_gone(self):
        from repro.faults.injector import FaultInjector

        assert not hasattr(FaultInjector, "inject_iteration")


class TestRetiredLayerEdges:
    """The names that carried an upward import (docs/DESIGN.md §1) or a
    second spelling of something below are gone, not aliased: each
    moved name has exactly one home."""

    @pytest.mark.parametrize(
        "module",
        ["repro.sim.experiments", "repro.campaign.store", "repro.store.serve", "repro.util.log"],
    )
    def test_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "package, name",
        [
            ("repro.sim", "run_table1"),
            ("repro.sim", "run_figure1"),
            ("repro.sim", "sweep_checkpoint_interval"),
            ("repro.core", "run_ft_method"),
            ("repro.campaign", "ResultStore"),
            ("repro.store", "serve_campaign"),
            ("repro.campaign", "serve_campaign"),
            ("repro.store", "LeaseUnsupported"),
            ("repro.store.protocol", "LeaseUnsupported"),
            ("repro.campaign.serve", "Leases"),
        ],
    )
    def test_old_spellings_fail(self, package, name):
        import importlib

        with pytest.raises(ImportError):
            exec(f"from {package} import {name}", {})
        assert name not in importlib.import_module(package).__all__

    def test_worker_workspace_is_the_default_workspace(self):
        from repro.campaign import executor

        for name in ("_WORKER_WORKSPACE", "_worker_workspace", "release_worker_workspace"):
            assert not hasattr(executor, name)

    def test_event_log_kwarg_is_rejected(self, problem):
        a, b = problem
        with pytest.raises(TypeError, match="event_log"):
            run_protected(CGPlugin(), a, b, config(Scheme.ABFT_DETECTION), event_log=[])


class TestRetiredSurfaceEdges:
    """The library no campaign reached — the ``dense`` backend, the
    ``ProtectedOperator`` wrapper, k-error checksums, the disk checkpoint
    store, BiCG / CGNE and ABFT on rectangular row blocks — is gone, not
    aliased."""

    @pytest.mark.parametrize(
        "module",
        ["repro.backends.dense", "repro.abft.operator", "repro.abft.multi",
         "repro.checkpoint.disk"],
    )
    def test_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "package, name",
        [
            ("repro.abft", "ProtectedOperator"),
            ("repro.abft", "MultiChecksums"),
            ("repro.core", "bicg"),
            ("repro.core", "cgne"),
            ("repro.checkpoint", "DiskCheckpointStore"),
        ],
    )
    def test_names_are_gone(self, package, name):
        import importlib

        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), name)
        with pytest.raises(ImportError):
            exec(f"from {package} import {name}", {})

    def test_dense_is_an_unknown_backend(self, capsys):
        from repro.api.cli import main
        from repro.backends import get_backend

        with pytest.raises(ValueError, match="unknown backend 'dense'; "
                           "available: reference, scipy$"):
            get_backend("dense")
        assert main(["solve", "--backend", "dense"]) == 2
        assert "unknown backend 'dense'" in capsys.readouterr().err

    def test_checksums_refuse_a_row_block(self, small_lap):
        from repro.abft import compute_checksums
        from repro.sparse import CSRMatrix

        lo, hi = int(small_lap.rowidx[100]), int(small_lap.rowidx[200])
        block = CSRMatrix(
            small_lap.val[lo:hi].copy(), small_lap.colid[lo:hi].copy(),
            small_lap.rowidx[100:201] - lo, (100, small_lap.ncols),
        )
        assert block.shape == (100, 400)
        with pytest.raises(ValueError, match="square"):
            compute_checksums(block)

    @staticmethod
    def _non_square(a, shape):
        dense = a.to_dense()
        from repro.sparse import CSRMatrix

        return CSRMatrix.from_dense(dense[100:200] if shape == "wide" else dense[:, 100:200])

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_checksums_refuse_any_non_square_matrix(self, small_lap, shape):
        from repro.abft import compute_checksums

        a = self._non_square(small_lap, shape)
        for nchecks in (1, 2):
            with pytest.raises(ValueError) as ei:
                compute_checksums(a, nchecks=nchecks)
            assert str(ei.value) == f"matrix must be square, got shape {a.shape}"

    @pytest.mark.parametrize(
        "method, scheme",
        [(m.value, s.value) for m in Method for s in m.supported_schemes],
    )
    def test_solve_refuses_a_non_square_matrix_in_every_cell(self, small_lap, method, scheme):
        import repro

        for shape, dims in (("wide", "100x400"), ("tall", "400x100")):
            a = self._non_square(small_lap, shape)
            with pytest.raises(ValueError, match=f"matrix must be square, got {dims}"):
                repro.solve(a, np.ones(a.nrows), method=method, scheme=scheme)


# ----------------------------------------------------------------------
# Floating-point error state: one owner per solve, one per public call
# ----------------------------------------------------------------------
_FP_GRID = [(m, s) for m in Method for s in Scheme if m.supports(s)]


@pytest.fixture
def exponent_strikes(monkeypatch):
    """Every sampled strike lands on an exponent bit of ``val`` or of the
    iterate ``x``: corrupted values of up to ~1e308 that overflow the
    kernel, the checksum algebra, the decoder and Chen's tests."""
    from repro.faults.injector import FaultInjector

    real = FaultInjector.sample_strikes

    def sample(self, *, n_strikes=None):
        out = []
        for target, position, bit in real(self, n_strikes=n_strikes):
            target = "val" if target in ("val", "colid", "rowidx") else "x"
            out.append((target, position % self.targets.arrays[target].size, 52 + bit % 11))
        return out

    monkeypatch.setattr(FaultInjector, "sample_strikes", sample)


@pytest.fixture
def errstate_entries(monkeypatch):
    """Counts every ``np.errstate`` entered through the ``numpy`` module."""
    entries = []
    real = np.errstate

    class Counting(real):
        def __enter__(self):
            entries.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", Counting)
    return entries


@pytest.fixture
def residuals_built(monkeypatch):
    """Counts :class:`~repro.abft.spmv.SpmvResiduals` constructions."""
    from repro.abft.spmv import SpmvResiduals

    built = []
    real = SpmvResiduals.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SpmvResiduals, "__init__", init)
    return built


class TestFloatingPointState:
    @pytest.mark.parametrize("method,scheme", _FP_GRID,
                             ids=[f"{m.value}-{s.value}" for m, s in _FP_GRID])
    def test_no_runtime_warning_escapes_a_struck_solve(self, method, scheme, exponent_strikes):
        import warnings

        a = stencil_spd(100, kind="cross", radius=1)
        b = make_rhs(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(3):
                for workspace in (None, SolveWorkspace()):
                    d = 1 if scheme.uses_abft else 2
                    res = run_ft_method(method, a, b, config(scheme, s=3, d=d), alpha=0.5,
                                        rng=seed, eps=1e-6, maxiter=200, workspace=workspace)
                    assert res.counters.faults_injected > 0

    def test_no_runtime_warning_escapes_a_public_call(self):
        import warnings

        from repro.abft import compute_checksums, protected_spmv
        from repro.sparse.spmv import spmv

        a = stencil_spd(100, kind="cross", radius=1)
        cks = {k: compute_checksums(a, nchecks=k) for k in (1, 2)}
        x = np.full(a.ncols, 1e300)
        struck = a.copy()
        struck.val[7] = 1e308  # overflows the product, then the checksums
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = spmv(struck, x)
            assert not np.all(np.isfinite(y))
            for correct in (False, True):
                res = protected_spmv(struck.copy(), x.copy(), cks[2 if correct else 1],
                                     correct=correct)
                assert not res.trusted
                assert not res.residuals.clean

    def test_one_errstate_per_solve_whatever_the_iterations(self, problem, errstate_entries):
        a, b = problem
        solves = 0
        for method, scheme in _FP_GRID:
            for maxiter, alpha in ((3, 0.0), (60, 0.0), (60, 0.3)):
                run_ft_method(method, a, b, config(scheme), alpha=alpha, rng=5, eps=1e-6,
                              maxiter=maxiter, workspace=SolveWorkspace())
                solves += 1
        assert len(errstate_entries) == solves

    def test_strike_free_solve_builds_no_residuals(self, problem, residuals_built):
        a, b = problem
        for method in Method:
            res = run_ft_method(method, a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0,
                                eps=1e-6)
            assert res.converged and res.iterations_executed > 0
        assert residuals_built == []

    @pytest.mark.parametrize("scheme", [Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION])
    def test_struck_solve_builds_residuals_per_unclean_product(
        self, problem, residuals_built, monkeypatch, scheme
    ):
        from repro.abft.spmv import SpmvStatus
        from repro.resilience import engine

        unclean = []
        real = engine.verified_spmv

        def counting(*args, **kwargs):
            result = real(*args, **kwargs)
            unclean.append(result.status is not SpmvStatus.OK)
            return result

        monkeypatch.setattr(engine, "verified_spmv", counting)
        a, b = problem
        for method in Method:
            run_ft_method(method, a, b, config(scheme), alpha=0.5, rng=11, eps=1e-6,
                          maxiter=300)
        assert 0 < len(residuals_built) == sum(unclean) < len(unclean)
