"""Tests for fault-tolerant BiCGstab."""

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig, bicgstab
from repro.resilience import run_ft_method
from repro.sim.engine import make_rhs
from repro.sparse import stencil_spd


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(900, kind="cross", radius=2)
    return a, make_rhs(a)


def config(scheme, s=8):
    return SchemeConfig(scheme, checkpoint_interval=s)


class TestFaultFree:
    @pytest.mark.parametrize("scheme", [Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION])
    def test_converges(self, problem, scheme):
        a, b = problem
        res = run_ft_method("bicgstab", a, b, config(scheme), alpha=0.0, rng=0, eps=1e-6)
        assert res.converged
        assert res.counters.rollbacks == 0
        assert res.residual_norm <= res.threshold

    def test_matches_plain_bicgstab(self, problem):
        a, b = problem
        plain = bicgstab(a, b, eps=1e-6)
        ft = run_ft_method("bicgstab", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.0, rng=0, eps=1e-6)
        np.testing.assert_allclose(a.matvec(ft.x), b, atol=10 * plain.threshold)

    def test_online_scheme_rejected(self, problem):
        a, b = problem
        with pytest.raises(ValueError, match="ABFT"):
            run_ft_method(
                "bicgstab", a, b,
                SchemeConfig(Scheme.ONLINE_DETECTION, verification_interval=4),
                alpha=0.0,
            )

    def test_breakdown_sums(self, problem):
        a, b = problem
        res = run_ft_method("bicgstab", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.1, rng=3, eps=1e-6)
        assert res.breakdown.total == pytest.approx(res.time_units)


class TestWithFaults:
    @pytest.mark.parametrize("scheme", [Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION])
    def test_converges_under_injection(self, problem, scheme):
        a, b = problem
        res = run_ft_method("bicgstab", a, b, config(scheme), alpha=0.1, rng=42, eps=1e-6)
        assert res.converged
        assert res.counters.faults_injected > 0
        assert res.residual_norm <= res.threshold

    def test_correction_forward_recovers(self, problem):
        a, b = problem
        res = run_ft_method(
            "bicgstab", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.25, rng=11, eps=1e-6
        )
        assert res.converged
        assert res.counters.total_corrections > 0
        assert res.counters.rollbacks < res.counters.total_corrections

    def test_detection_rolls_back(self, problem):
        a, b = problem
        res = run_ft_method(
            "bicgstab", a, b, config(Scheme.ABFT_DETECTION), alpha=0.25, rng=11, eps=1e-6
        )
        assert res.converged
        assert res.counters.rollbacks > 0
        assert res.counters.total_corrections == 0

    def test_input_matrix_untouched(self, problem):
        a, b = problem
        snap = a.copy()
        run_ft_method("bicgstab", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.3, rng=2, eps=1e-6)
        assert a.equals(snap)

    def test_determinism(self, problem):
        a, b = problem
        r1 = run_ft_method("bicgstab", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=77, eps=1e-6)
        r2 = run_ft_method("bicgstab", a, b, config(Scheme.ABFT_CORRECTION), alpha=0.2, rng=77, eps=1e-6)
        assert r1.time_units == r2.time_units
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_correction_faster_at_high_rate(self, problem):
        a, b = problem
        times = {}
        for scheme in (Scheme.ABFT_CORRECTION, Scheme.ABFT_DETECTION):
            vals = [
                run_ft_method("bicgstab", a, b, config(scheme), alpha=0.3, rng=seed, eps=1e-6).time_units
                for seed in range(4)
            ]
            times[scheme] = np.mean(vals)
        assert times[Scheme.ABFT_CORRECTION] < times[Scheme.ABFT_DETECTION]
