"""Integration-grade tests for the fault-tolerant CG driver."""

import numpy as np
import pytest

from repro.core import CostModel, Scheme, SchemeConfig, cg
from repro.resilience import run_ft_method
from repro.sparse import stencil_spd
from repro.obs import InMemoryTracer


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(900, kind="cross", radius=2)
    b = np.random.default_rng(77).normal(size=a.nrows)
    return a, b


def config(scheme, s=8, d=1):
    return SchemeConfig(scheme, checkpoint_interval=s, verification_interval=d)


class TestFaultFree:
    @pytest.mark.parametrize("scheme,d", [
        (Scheme.ONLINE_DETECTION, 4),
        (Scheme.ABFT_DETECTION, 1),
        (Scheme.ABFT_CORRECTION, 1),
    ])
    def test_converges_without_faults(self, problem, scheme, d):
        a, b = problem
        res = run_ft_method("cg", a, b, config(scheme, d=d), alpha=0.0, rng=0, eps=1e-6)
        assert res.converged
        assert res.residual_norm <= res.threshold
        assert res.counters.detections == 0
        assert res.counters.rollbacks == 0
        assert res.counters.faults_injected == 0

    def test_matches_plain_cg_solution(self, problem):
        a, b = problem
        plain = cg(a, b, eps=1e-6)
        ft = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-6)
        np.testing.assert_allclose(ft.x, plain.x, rtol=1e-6, atol=1e-8)
        assert ft.iterations == plain.iterations

    def test_time_accounting_fault_free(self, problem):
        a, b = problem
        costs = CostModel(t_cp=0.5, t_rec=0.5, t_verif_correct=0.25)
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=10, costs=costs)
        res = run_ft_method("cg", a, b, cfg, alpha=0.0, rng=0, eps=1e-6)
        expected = res.iterations_executed * (1.0 + 0.25) + res.counters.checkpoints * 0.5
        assert res.time_units == pytest.approx(expected)

    def test_input_matrix_never_mutated(self, problem):
        a, b = problem
        snapshot = a.copy()
        run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.3, rng=5, eps=1e-6)
        assert a.equals(snapshot)


class TestWithFaults:
    @pytest.mark.parametrize("scheme,d", [
        (Scheme.ONLINE_DETECTION, 4),
        (Scheme.ABFT_DETECTION, 1),
        (Scheme.ABFT_CORRECTION, 1),
    ])
    def test_converges_to_true_solution_under_faults(self, problem, scheme, d):
        a, b = problem
        res = run_ft_method("cg", a, b, config(scheme, d=d), alpha=0.1, rng=42, eps=1e-6)
        assert res.converged
        assert res.counters.faults_injected > 0
        # The reported residual is recomputed against the *clean* matrix.
        assert res.residual_norm <= res.threshold

    def test_correction_forward_recovers(self, problem):
        a, b = problem
        res = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=3, eps=1e-6)
        assert res.counters.total_corrections > 0
        # Forward recovery: far fewer rollbacks than corrections.
        assert res.counters.rollbacks < res.counters.total_corrections

    def test_detection_rolls_back(self, problem):
        a, b = problem
        res = run_ft_method("cg", a, b, config(Scheme.ABFT_DETECTION), alpha=0.2, rng=3, eps=1e-6)
        assert res.counters.detections > 0
        assert res.counters.rollbacks > 0
        assert res.counters.total_corrections == 0

    def test_correction_beats_detection_at_high_rate(self, problem):
        a, b = problem
        t_corr = [], []
        times = {}
        for scheme in (Scheme.ABFT_CORRECTION, Scheme.ABFT_DETECTION):
            vals = [
                run_ft_method("cg", a, b, config(scheme), alpha=0.25, rng=seed, eps=1e-6).time_units
                for seed in range(5)
            ]
            times[scheme] = np.mean(vals)
        assert times[Scheme.ABFT_CORRECTION] < times[Scheme.ABFT_DETECTION]

    def test_tracer_records_recoveries(self, problem):
        a, b = problem
        tracer = InMemoryTracer()
        res = run_ft_method(
            "cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.3, rng=11, eps=1e-6, tracer=tracer
        )
        kinds = set(tracer.counts_by_kind())
        assert "checkpoint" in kinds
        if res.counters.total_corrections:
            assert "abft-correction" in kinds

    def test_executed_geq_logical_iterations(self, problem):
        a, b = problem
        res = run_ft_method("cg", a, b, config(Scheme.ABFT_DETECTION, s=4), alpha=0.3, rng=9, eps=1e-6)
        assert res.iterations_executed >= res.iterations

    def test_determinism(self, problem):
        a, b = problem
        r1 = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=123, eps=1e-6)
        r2 = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=123, eps=1e-6)
        assert r1.time_units == r2.time_units
        assert r1.iterations_executed == r2.iterations_executed
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_high_rate_online(self, problem):
        a, b = problem
        res = run_ft_method("cg", a, b, config(Scheme.ONLINE_DETECTION, s=2, d=3), alpha=0.3, rng=8, eps=1e-6)
        assert res.converged
        assert res.counters.rollbacks > 0


class TestGuards:
    def test_max_time_units_bails(self, problem):
        a, b = problem
        res = run_ft_method(
            "cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-14,
            max_time_units=10.0,
        )
        assert res.time_units <= 13.0  # one iteration of slack

    def test_maxiter_bails(self, problem):
        a, b = problem
        res = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-14, maxiter=7)
        assert res.iterations_executed == 7
        assert not res.converged

    def test_final_check_disabled(self, problem):
        a, b = problem
        res = run_ft_method(
            "cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.05, rng=2, eps=1e-6, final_check=False
        )
        assert res.counters.final_check_failures == 0

    def test_zero_alpha_requires_no_injector(self, problem):
        a, b = problem
        res = run_ft_method("cg", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, eps=1e-6)
        assert res.counters.faults_injected == 0
