"""Unit tests for the Eq.-6 interval optimization."""

import math

import pytest

from repro.model import frame_overhead, optimal_interval, optimal_online_intervals


class TestOptimalInterval:
    def test_matches_exhaustive_scan(self):
        q = 0.93
        choice = optimal_interval(1.0, q, 2.0, 1.0, 0.2, s_max=200)
        brute = min(range(1, 201), key=lambda s: frame_overhead(s, 1.0, 2.0, 1.0, 0.2, q))
        assert choice.s == brute

    def test_error_free_prefers_no_checkpoints(self):
        choice = optimal_interval(1.0, 1.0, 1.0, 1.0, 0.1, s_max=50)
        assert choice.s == 50  # checkpoints are pure overhead

    def test_higher_rate_means_smaller_s(self):
        s_vals = [
            optimal_interval(1.0, math.exp(-lam), 1.0, 1.0, 0.2).s
            for lam in (0.001, 0.01, 0.05, 0.2)
        ]
        assert s_vals == sorted(s_vals, reverse=True)
        assert s_vals[-1] < s_vals[0]

    def test_expensive_checkpoint_means_larger_s(self):
        cheap = optimal_interval(1.0, 0.95, 0.5, 1.0, 0.2).s
        pricey = optimal_interval(1.0, 0.95, 8.0, 1.0, 0.2).s
        assert pricey > cheap

    def test_overhead_value_consistent(self):
        choice = optimal_interval(1.0, 0.9, 1.0, 1.0, 0.2)
        assert choice.overhead == pytest.approx(
            frame_overhead(choice.s, 1.0, 1.0, 1.0, 0.2, 0.9)
        )

    def test_s_max_validation(self):
        with pytest.raises(ValueError):
            optimal_interval(1.0, 0.9, 1.0, 1.0, 0.2, s_max=0)

    @pytest.mark.parametrize(
        "lam, t_cp", [(1e-4, 2.0), (1e-3, 1.0), (1e-4, 1.0), (1e-5, 1.0)]
    )
    def test_young_daly_consistency_in_cheap_verification_regime(self, lam, t_cp):
        """With negligible verification cost, s·T approaches the
        Young period sqrt(2·Tcp/λ)."""
        from repro.model import young_period

        choice = optimal_interval(1.0, math.exp(-lam), t_cp, t_cp, 1e-9, s_max=2000)
        period = choice.s * 1.0
        assert period == pytest.approx(young_period(t_cp, lam), rel=0.15)


class TestOnlineJoint:
    def test_beats_or_matches_any_fixed_d(self):
        lam, tcp, trec, tv = 0.01, 1.5, 1.0, 0.8
        best = optimal_online_intervals(1.0, lam, tcp, trec, tv, d_max=60, s_max=60)
        for d in (1, 5, 20, 60):
            q = math.exp(-lam * d)
            fixed = optimal_interval(d * 1.0, q, tcp, trec, tv, s_max=60)
            assert best.overhead <= fixed.overhead + 1e-12

    def test_d_grows_as_rate_drops(self):
        d_vals = [
            optimal_online_intervals(1.0, lam, 1.0, 1.0, 0.8, d_max=150, s_max=40).d
            for lam in (0.05, 0.01, 0.001)
        ]
        assert d_vals == sorted(d_vals)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            optimal_online_intervals(1.0, -0.1, 1.0, 1.0, 0.5)
