"""Unit tests for the execution-time breakdown of FT-CG runs."""

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.resilience.accounting import TimeBreakdown
from repro.sim.engine import make_rhs
from repro.sparse import stencil_spd


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(900, kind="cross", radius=2)
    return a, make_rhs(a)


class TestTimeBreakdown:
    def test_components_sum_to_total(self, problem):
        a, b = problem
        for alpha in (0.0, 0.15):
            cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=7)
            res = run_ft_method("cg", a, b, cfg, alpha=alpha, rng=4, eps=1e-6)
            assert res.breakdown.total == pytest.approx(res.time_units)

    def test_fault_free_has_no_waste(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=7)
        res = run_ft_method("cg", a, b, cfg, alpha=0.0, rng=0, eps=1e-6)
        bd = res.breakdown
        assert bd.wasted_work == 0.0
        assert bd.recovery == 0.0
        assert bd.useful_work == pytest.approx(res.iterations_executed * 1.0)
        assert bd.checkpoint == pytest.approx(res.counters.checkpoints * cfg.costs.t_cp)

    def test_faulty_run_accrues_waste(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=7)
        res = run_ft_method("cg", a, b, cfg, alpha=0.25, rng=8, eps=1e-6)
        assert res.counters.rollbacks > 0
        assert res.breakdown.wasted_work > 0
        assert res.breakdown.recovery > 0

    def test_useful_work_counts_surviving_iterations(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=7)
        res = run_ft_method("cg", a, b, cfg, alpha=0.2, rng=8, eps=1e-6)
        bd = res.breakdown
        assert bd.useful_work + bd.wasted_work == pytest.approx(
            res.iterations_executed * 1.0
        )

    def test_overhead_ratio_matches_model_direction(self, problem):
        """Higher fault rate ⇒ higher measured overhead ratio."""
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=7)
        low = run_ft_method("cg", a, b, cfg, alpha=0.02, rng=3, eps=1e-6).breakdown.overhead_ratio
        high = run_ft_method("cg", a, b, cfg, alpha=0.3, rng=3, eps=1e-6).breakdown.overhead_ratio
        assert high > low > 1.0

    def test_online_breakdown_consistent(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ONLINE_DETECTION, checkpoint_interval=4, verification_interval=4)
        res = run_ft_method("cg", a, b, cfg, alpha=0.1, rng=5, eps=1e-6)
        assert res.breakdown.total == pytest.approx(res.time_units)
        assert res.breakdown.verification == pytest.approx(
            res.counters.verifications * cfg.costs.t_verif_online
        )

    def test_empty_breakdown_ratio(self):
        assert TimeBreakdown().overhead_ratio == float("inf")
