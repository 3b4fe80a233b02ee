"""The ``repro.solve()`` facade: wiring, reporting, and the golden lock."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import CheckpointSpec, CostModel, FaultSpec, solve
from repro.api.facade import SolveReport
from repro.model.instantiate import model_interval_for
from repro.core.methods import Scheme
from repro.sparse import stencil_spd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json"
_gold = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(900, kind="cross", radius=2)
    b = np.random.default_rng(3).standard_normal(a.nrows)
    return a, b


class TestBasics:
    def test_three_line_protected_solve(self, problem):
        a, b = problem
        report = solve(a, b, method="pcg", scheme="abft-correction",
                       faults=FaultSpec(alpha=0.1, seed=42))
        assert report.converged
        assert report.residual_norm <= report.threshold
        assert report.method == "pcg" and report.scheme == "abft-correction"
        assert report.counters.faults_injected > 0
        assert report.breakdown.total == pytest.approx(report.time_units)
        np.testing.assert_allclose(a.matvec(report.x), b, atol=1e-4)

    def test_default_is_unfaulted_cg(self, problem):
        a, b = problem
        report = solve(a, b)
        assert report.converged
        assert report.method == "cg"
        assert report.alpha == 0.0
        assert report.counters.faults_injected == 0
        assert report.recommended_interval is None
        assert report.checkpoint_interval == CheckpointSpec.DEFAULT_INTERVAL

    def test_shorthand_coercions(self, problem):
        a, b = problem
        r1 = solve(a, b, faults=0.05, checkpoint=7)
        r2 = solve(a, b, faults=FaultSpec(alpha=0.05), checkpoint=CheckpointSpec(interval=7))
        assert r1.checkpoint_interval == r2.checkpoint_interval == 7
        assert r1.alpha == r2.alpha == 0.05

    def test_seeded_runs_reproduce(self, problem):
        a, b = problem
        kw = dict(faults=FaultSpec(alpha=0.1, seed=11))
        r1, r2 = solve(a, b, **kw), solve(a, b, **kw)
        assert r1.time_units == r2.time_units
        assert r1.solution_sha256 == r2.solution_sha256
        assert r1.history == r2.history

    def test_auto_interval_matches_model(self, problem):
        a, b = problem
        alpha = 1.0 / 16.0
        report = solve(a, b, scheme="abft-detection", faults=alpha)
        s, _ = model_interval_for(Scheme.ABFT_DETECTION, alpha, CostModel.from_matrix(a))
        assert report.checkpoint_interval == s == report.recommended_interval

    def test_online_auto_d_from_chen(self, problem):
        a, b = problem
        report = solve(a, b, scheme="online-detection", faults=1.0 / 500.0)
        assert report.verification_interval > 1  # Chen's d grows with MTBF

    def test_dense_and_scipy_inputs(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((40, 40))
        dense = m @ m.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        r1 = solve(dense, b, scheme="abft-detection")
        assert r1.converged
        import scipy.sparse

        r2 = solve(scipy.sparse.csr_matrix(dense), b, scheme="abft-detection")
        assert r2.converged
        assert r1.solution_sha256 == r2.solution_sha256


class TestValidationErrors:
    def test_unknown_method_lists_valid_values(self, problem):
        a, b = problem
        with pytest.raises(ValueError, match="cg, bicgstab, pcg"):
            solve(a, b, method="gmres")

    def test_unknown_scheme_lists_valid_values(self, problem):
        a, b = problem
        with pytest.raises(ValueError, match="online-detection, abft-detection"):
            solve(a, b, scheme="abft")

    def test_unsupported_combo_names_supported_schemes(self, problem):
        a, b = problem
        with pytest.raises(ValueError, match="does not support"):
            solve(a, b, method="bicgstab", scheme="online-detection")

    def test_shape_mismatch(self, problem):
        a, _ = problem
        with pytest.raises(ValueError, match="shape"):
            solve(a, np.ones(3))

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, problem, eps):
        # run_protected's check, so every solve (campaign tasks too)
        # refuses a threshold it could never meet or always meets.
        a, b = problem
        with pytest.raises(ValueError, match="eps must be"):
            solve(a, b, faults=None, eps=eps)

    @pytest.mark.parametrize(
        "maxiter", [0, -1, float("nan"), float("inf"), -float("inf"), 2.5, 0.5]
    )
    def test_maxiter_must_be_at_least_one(self, problem, maxiter):
        a, b = problem
        with pytest.raises(ValueError, match="maxiter must be >= 1"):
            solve(a, b, faults=None, maxiter=maxiter)

    def test_integral_maxiter_runs_as_before(self, problem):
        a, b = problem
        runs = [solve(a, b, faults=None, maxiter=m, record_history=False)
                for m in (5, 5.0)]
        assert [r.iterations_executed for r in runs] == [5, 5]
        assert runs[0].solution_sha256 == runs[1].solution_sha256

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            FaultSpec(alpha=-0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            FaultSpec(alpha=alpha)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            CheckpointSpec(interval=0)
        with pytest.raises(ValueError, match="interval"):
            CheckpointSpec(interval="sometimes")

    def test_bad_coercions_rejected(self, problem):
        a, b = problem
        with pytest.raises(TypeError):
            solve(a, b, faults="lots")
        with pytest.raises(TypeError):
            solve(a, b, checkpoint=3.5)

    def test_non_matrix_rejected(self):
        with pytest.raises(TypeError, match="matrix"):
            solve([1, 2, 3], np.ones(3))


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self):
        a = stencil_spd(400, kind="cross", radius=1)
        b = np.random.default_rng(5).standard_normal(a.nrows)
        return solve(a, b, faults=FaultSpec(alpha=0.1, seed=9))

    def test_to_dict_roundtrips_through_json(self, report):
        d = json.loads(report.to_json())
        assert d["converged"] == report.converged
        assert d["time_units"] == report.time_units  # exact float round trip
        assert d["counters"]["faults_injected"] == report.counters.faults_injected
        assert d["solution_sha256"] == report.solution_sha256
        assert "x" not in d

    def test_solution_opt_in(self, report):
        d = report.to_dict(solution=True)
        assert np.asarray(d["x"]).shape == report.x.shape
        digest = hashlib.sha256(
            np.ascontiguousarray(np.asarray(d["x"])).tobytes()
        ).hexdigest()
        assert digest == report.solution_sha256

    def test_history_is_per_executed_iteration(self, report):
        assert len(report.history) == report.iterations_executed
        times = [h["time_units"] for h in report.history]
        assert times == sorted(times)
        assert report.history[-1]["residual_norm"] < report.history[0]["residual_norm"]

    def test_history_opt_out(self):
        a = stencil_spd(100, kind="cross", radius=1)
        b = np.ones(a.nrows)
        report = solve(a, b, record_history=False)
        assert report.history == []

    @pytest.mark.parametrize("record_history", [True, False])
    def test_events_are_one_per_counted_recovery(self, problem, record_history):
        a, b = problem
        report = solve(a, b, scheme="abft-correction", checkpoint=8,
                       faults=FaultSpec(alpha=0.3, seed=11), record_history=record_history)
        c = report.counters
        assert c.rollbacks and c.total_corrections and c.checkpoints  # a struck solve
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("rollback") + kinds.count("refresh-rollback") == c.rollbacks
        assert kinds.count("abft-correction") == c.total_corrections
        assert kinds.count("checkpoint") == c.checkpoints
        first = next(e for e in report.events if e["kind"] == "checkpoint")
        assert set(first) == {"kind", "iteration", "time_units"}
        assert json.loads(report.to_json())["events"] == report.events

    def test_summary_mentions_the_essentials(self, report):
        text = report.summary()
        assert "converged" in text
        assert "cg" in text and "abft-correction" in text
        assert str(report.checkpoint_interval) in text

    def test_reports_compare_and_hash_by_identity(self, report):
        # The ndarray field would make a generated __eq__ raise; the
        # dataclass opts out (eq=False), so == and hash() must work.
        other = solve(stencil_spd(100, kind="cross", radius=1),
                      np.ones(100))
        assert report == report
        assert not (report == other)
        assert len({report, other}) == 2


class TestGoldenLock:
    """``solve()`` must reproduce the golden FT-CG trajectories bit for bit.

    Same fixtures as ``test_resilience_golden.py``: the facade adds
    wiring, never physics — identical (matrix, b, scheme, s, d, alpha,
    seed, eps, costs) must give the identical trajectory, down to the
    float accounting.
    """

    @pytest.fixture(scope="class")
    def golden_problem(self):
        a = stencil_spd(529, kind="cross", radius=2)
        b = np.random.default_rng(_gold["rhs_seed"]).normal(size=a.nrows)
        return a, b

    @pytest.mark.parametrize(
        "entry",
        [e for e in _gold["entries"] if e["driver"] == "ft_cg"],
        ids=lambda e: f"{e['scheme']}-a{e['alpha']}-seed{e['seed']}",
    )
    def test_bit_identical_to_golden_ft_cg(self, golden_problem, entry):
        a, b = golden_problem
        with np.errstate(all="ignore"):
            report = solve(
                a,
                b,
                method="cg",
                scheme=entry["scheme"],
                faults=FaultSpec(alpha=entry["alpha"], seed=entry["seed"]),
                checkpoint=CheckpointSpec(
                    interval=_gold["s"], verification_interval=entry["d"]
                ),
                costs=CostModel(),  # the golden runs used the default model
                eps=_gold["eps"],
            )
        want = entry["result"]
        assert report.solution_sha256 == want["x_sha256"]
        assert report.converged == want["converged"]
        assert report.iterations == want["iterations"]
        assert report.iterations_executed == want["iterations_executed"]
        assert float(report.time_units).hex() == want["time_units"]
        assert float(report.residual_norm).hex() == want["residual_norm"]
        c, wc = report.counters, want["counters"]
        assert c.faults_injected == wc["faults_injected"]
        assert c.rollbacks == wc["rollbacks"]
        assert c.checkpoints == wc["checkpoints"]
        assert dict(sorted(c.corrections.items())) == wc["corrections"]
