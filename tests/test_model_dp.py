"""Unit tests for the dynamic-programming checkpoint placement."""

import pytest

from repro.model import expected_frame_time, optimal_checkpoint_positions, optimal_interval


class TestDP:
    def test_positions_partition_the_horizon(self):
        dp = optimal_checkpoint_positions(20, 1.0, 0.9, 1.0, 1.0, 0.2)
        assert dp.positions[-1] == 20
        assert sum(dp.frame_sizes) == 20
        assert all(s >= 1 for s in dp.frame_sizes)

    def test_expected_time_is_sum_of_frames(self):
        dp = optimal_checkpoint_positions(12, 1.0, 0.9, 1.0, 1.0, 0.2)
        total = sum(
            expected_frame_time(s, 1.0, 1.0, 1.0, 0.2, 0.9) for s in dp.frame_sizes
        )
        assert dp.expected_time == pytest.approx(total)

    def test_beats_or_matches_uniform_partitions(self):
        n, t, q, tcp, trec, tv = 24, 1.0, 0.92, 1.5, 1.0, 0.3
        dp = optimal_checkpoint_positions(n, t, q, tcp, trec, tv)
        for s in (1, 2, 3, 4, 6, 8, 12, 24):
            uniform = (n // s) * expected_frame_time(s, t, tcp, trec, tv, q)
            assert dp.expected_time <= uniform + 1e-9

    def test_near_periodic_for_homogeneous_chunks(self):
        """The ablation behind the paper's periodic policy: the exact
        optimum uses (nearly) equal frames."""
        dp = optimal_checkpoint_positions(30, 1.0, 0.9, 1.0, 1.0, 0.2)
        assert max(dp.frame_sizes) - min(dp.frame_sizes) <= 1

    @pytest.mark.parametrize("q", [0.99, 0.95, 0.9, 0.8])
    def test_periodic_policy_within_two_percent_of_dp(self, q):
        """Eq. 6's periodic interval, remainder frame included, loses
        under 2 % to the exact placement over 60 chunks."""
        n = 60
        s = optimal_interval(1.0, q, 1.0, 1.0, 0.2, s_max=n).s
        frames, rem = divmod(n, s)
        periodic = frames * expected_frame_time(s, 1.0, 1.0, 1.0, 0.2, q)
        if rem:
            periodic += expected_frame_time(rem, 1.0, 1.0, 1.0, 0.2, q)
        dp = optimal_checkpoint_positions(n, 1.0, q, 1.0, 1.0, 0.2)
        assert dp.expected_time <= periodic + 1e-9
        assert periodic < 1.02 * dp.expected_time

    def test_error_free_uses_one_frame(self):
        dp = optimal_checkpoint_positions(10, 1.0, 1.0, 1.0, 1.0, 0.1)
        assert dp.frame_sizes == (10,)

    def test_high_rate_uses_small_frames(self):
        dp = optimal_checkpoint_positions(20, 1.0, 0.5, 0.5, 0.5, 0.1)
        assert max(dp.frame_sizes) <= 3

    def test_max_frame_cap_respected(self):
        dp = optimal_checkpoint_positions(20, 1.0, 0.99, 5.0, 1.0, 0.1, max_frame=4)
        assert max(dp.frame_sizes) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_checkpoint_positions(0, 1.0, 0.9, 1.0, 1.0, 0.1)
