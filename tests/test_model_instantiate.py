"""Unit tests for per-scheme model instantiation (Section 4.2)."""

import math

import pytest

from repro.core import CostModel, Scheme
from repro.model import (
    AbftCorrectionModel,
    AbftDetectionModel,
    OnlineDetectionModel,
    model_for_scheme,
)


@pytest.fixture
def costs():
    return CostModel(t_cp=1.2, t_rec=0.9, t_verif_online=0.8, t_verif_detect=0.2, t_verif_correct=0.35)


class TestSuccessProbabilities:
    def test_detection_q(self, costs):
        m = AbftDetectionModel(lam=0.1, costs=costs)
        assert m.q() == pytest.approx(math.exp(-0.1))

    def test_correction_q_includes_single_error(self, costs):
        m = AbftCorrectionModel(lam=0.1, costs=costs)
        assert m.q() == pytest.approx(math.exp(-0.1) * 1.1)

    def test_correction_q_strictly_larger(self, costs):
        for lam in (0.01, 0.1, 0.5, 1.0):
            det = AbftDetectionModel(lam=lam, costs=costs)
            cor = AbftCorrectionModel(lam=lam, costs=costs)
            assert cor.q() > det.q()

    def test_online_q_scales_with_d(self, costs):
        m = OnlineDetectionModel(lam=0.05, costs=costs, d=4)
        assert m.q() == pytest.approx(math.exp(-0.2))

    def test_zero_rate_q_is_one(self, costs):
        assert AbftDetectionModel(lam=0.0, costs=costs).q() == 1.0
        assert AbftCorrectionModel(lam=0.0, costs=costs).q() == 1.0


class TestOptimalIntervals:
    @pytest.mark.parametrize("lam", [0.1, 1 / 16, 1e-2, 1e-3, 1e-4])
    def test_correction_allows_larger_interval(self, costs, lam):
        """Higher per-chunk success probability ⇒ sparser checkpoints —
        the paper's central claim about ABFT-CORRECTION — at every rate
        of the Figure-1 range."""
        det = AbftDetectionModel(lam=lam, costs=costs).optimal(s_max=3000)
        cor = AbftCorrectionModel(lam=lam, costs=costs).optimal(s_max=3000)
        assert cor.s > det.s

    def test_correction_lower_overhead_at_high_rate(self, costs):
        lam = 0.2
        det = AbftDetectionModel(lam=lam, costs=costs).optimal()
        cor = AbftCorrectionModel(lam=lam, costs=costs).optimal()
        assert cor.overhead < det.overhead

    def test_detection_lower_overhead_at_tiny_rate(self, costs):
        """At very low λ the extra checksum cost dominates — the
        crossover the paper reports for very small fault rates."""
        lam = 1e-5
        det = AbftDetectionModel(lam=lam, costs=costs).optimal(s_max=3000)
        cor = AbftCorrectionModel(lam=lam, costs=costs).optimal(s_max=3000)
        assert det.overhead < cor.overhead

    def test_online_joint_optimization(self, costs):
        m = OnlineDetectionModel(lam=0.02, costs=costs)
        joint = m.optimal_joint(d_max=50, s_max=50)
        assert joint.d >= 1 and joint.s >= 1


class TestModelEvaluation:
    def test_expected_frame_time_positive(self, costs):
        m = AbftCorrectionModel(lam=0.1, costs=costs)
        assert m.expected_frame_time(5) > 0

    def test_overhead_at_least_one(self, costs):
        m = AbftDetectionModel(lam=0.05, costs=costs)
        assert m.overhead(m.optimal().s) > 1.0

    def test_expected_solve_time_scales_linearly(self, costs):
        m = AbftCorrectionModel(lam=0.05, costs=costs)
        assert m.expected_solve_time(200) == pytest.approx(2 * m.expected_solve_time(100))

    def test_factory(self, costs):
        assert isinstance(
            model_for_scheme(Scheme.ONLINE_DETECTION, 0.1, costs, d=3), OnlineDetectionModel
        )
        assert isinstance(model_for_scheme(Scheme.ABFT_DETECTION, 0.1, costs), AbftDetectionModel)
        assert isinstance(model_for_scheme(Scheme.ABFT_CORRECTION, 0.1, costs), AbftCorrectionModel)

    def test_validation(self, costs):
        with pytest.raises(ValueError):
            AbftDetectionModel(lam=-0.1, costs=costs)
        with pytest.raises(ValueError):
            OnlineDetectionModel(lam=0.1, costs=costs, d=0)
