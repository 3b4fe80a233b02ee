"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro import solve
from repro.core import CostModel, Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.model import model_for_scheme
from repro.sim.engine import make_rhs, repeat_run
from repro.sim.matrices import suite_specs
from repro.sparse import stencil_spd


@pytest.fixture(scope="module")
def suite_matrix():
    spec = suite_specs([1311])[0]
    a = spec.instantiate(scale=48)
    return a, make_rhs(a)


class TestSchemesAgree:
    """All three schemes must land on the same solution under faults."""

    def test_same_solution_all_schemes(self, suite_matrix):
        a, b = suite_matrix
        plain = solve(a, b, faults=None, eps=1e-8)
        xs = []
        for scheme, d in [
            (Scheme.ONLINE_DETECTION, 3),
            (Scheme.ABFT_DETECTION, 1),
            (Scheme.ABFT_CORRECTION, 1),
        ]:
            cfg = SchemeConfig(scheme, checkpoint_interval=6, verification_interval=d)
            res = run_ft_method("cg", a, b, cfg, alpha=0.08, rng=2, eps=1e-8)
            assert res.converged, scheme
            xs.append(res.x)
        for x in xs:
            np.testing.assert_allclose(a.matvec(x), b, atol=10 * plain.threshold)


class TestModelPredictsSimulation:
    """The Eq.-6 model must rank checkpoint intervals like the simulator
    does — the essence of Table 1."""

    def test_model_interval_near_empirical(self):
        a = stencil_spd(900, kind="cross", radius=2)
        b = make_rhs(a)
        costs = CostModel.from_matrix(a)
        alpha = 1 / 8  # high rate so interval choice matters
        model = model_for_scheme(Scheme.ABFT_DETECTION, alpha, costs)
        s_model = model.optimal(s_max=100).s

        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=1, costs=costs)
        times = {}
        for s in (1, s_model, 4 * s_model + 8):
            stats = repeat_run(
                a, b, cfg.with_intervals(s=s), alpha=alpha, reps=6, base_seed=3, eps=1e-6
            )
            times[s] = stats.mean_time
        # The model's choice beats both a far-too-small and a
        # far-too-large interval.
        assert times[s_model] < times[1]
        assert times[s_model] < times[4 * s_model + 8]

    def test_correction_model_q_matches_simulation(self):
        """Fraction of iterations with ≤1 strike ≈ e^{-α}(1+α)."""
        a = stencil_spd(625, kind="cross", radius=1)
        b = make_rhs(a)
        alpha = 0.5
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
        res = run_ft_method("cg", a, b, cfg, alpha=alpha, rng=7, eps=1e-6, maxiter=4000)
        # Iterations that did not roll back ÷ executed ≈ q.
        q_model = np.exp(-alpha) * (1 + alpha)
        q_sim = 1 - res.counters.rollbacks / res.iterations_executed
        assert q_sim == pytest.approx(q_model, abs=0.12)


class TestRecoveryAudit:
    def test_counters_consistent_with_events(self, suite_matrix):
        from repro.obs import InMemoryTracer

        a, b = suite_matrix
        log = InMemoryTracer()
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=5)
        res = run_ft_method("cg", a, b, cfg, alpha=0.2, rng=1, eps=1e-6, tracer=log)
        count = log.counts_by_kind()
        assert count.get("checkpoint", 0) == res.counters.checkpoints
        assert count.get("abft-correction", 0) == res.counters.total_corrections
        assert (
            count.get("rollback", 0) + count.get("refresh-rollback", 0)
            == res.counters.rollbacks
        )

    def test_fault_records_match_counter(self, suite_matrix):
        a, b = suite_matrix
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=5)
        res = run_ft_method("cg", a, b, cfg, alpha=0.15, rng=4, eps=1e-6)
        assert res.counters.faults_injected > 0
