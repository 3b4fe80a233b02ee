"""Unit tests for checksum weights and the shift constant."""

import numpy as np
import pytest

from repro.abft import choose_shift, compute_checksums, ones_weights, ramp_weights, weight_matrix
from repro.abft.weights import random_weights
from repro.sim.matrices import get_matrix
from repro.sparse import graph_laplacian_spd
from repro.sparse.norms import column_sums


class TestWeights:
    def test_ones(self):
        np.testing.assert_array_equal(ones_weights(5), np.ones(5))

    def test_ramp_is_one_based(self):
        np.testing.assert_array_equal(ramp_weights(4), [1.0, 2.0, 3.0, 4.0])

    def test_weight_matrix_one_row(self):
        w = weight_matrix(6, 1)
        assert w.shape == (1, 6)
        np.testing.assert_array_equal(w[0], np.ones(6))

    def test_weight_matrix_two_rows(self):
        w = weight_matrix(6, 2)
        assert w.shape == (2, 6)
        np.testing.assert_array_equal(w[1], np.arange(1, 7))

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_weight_matrix_rejects_bad_nchecks(self, bad):
        with pytest.raises(ValueError, match="nchecks"):
            weight_matrix(6, bad)

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(ValueError):
            ones_weights(n)
        with pytest.raises(ValueError):
            ramp_weights(n)


class TestRandomWeights:
    def test_bounded_away_from_zero(self):
        w = random_weights(500, rng=0)
        assert w.shape == (500,)
        assert w.min() >= 0.5 and w.max() < 1.5

    def test_deterministic_by_seed(self):
        np.testing.assert_array_equal(random_weights(10, rng=3), random_weights(10, rng=3))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_weights(0)

    def test_nonzero_checksums_without_shift(self):
        """Zero column sums (a graph Laplacian) leave random-weight
        checksums nonzero with no shift: Section 3.2's alternative fix."""
        a = graph_laplacian_spd(300, 6, seed=3, shift=1e-12)
        checksums = column_sums(a, weights=random_weights(a.nrows, rng=5))
        assert np.all(np.abs(checksums) > 1e-8)

    def test_clean_rounding_below_threshold(self):
        """|(wᵀA)x − wᵀ(Ax)| over clean products stays under the
        Theorem-2 threshold for unit and random weights alike."""
        a = get_matrix(341, 8)
        threshold = compute_checksums(a, nchecks=1).tolerance.thresholds(3.0)[0]
        xs = np.random.default_rng(0).normal(size=(30, a.ncols))
        for w in (ones_weights(a.nrows), random_weights(a.nrows, rng=1)):
            c = column_sums(a, weights=w)
            rounding = [abs(float(c @ x) - float(w @ a.matvec(x))) for x in xs]
            assert np.mean(rounding) < threshold


class TestShift:
    def test_shift_avoids_all_zeros(self):
        colsums = np.zeros(10)
        k = choose_shift(colsums)
        assert np.all(np.abs(colsums + k) > 0)

    def test_shift_avoids_adversarial_colsums(self):
        # Column sums placed exactly at −k candidates.
        colsums = -np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        k = choose_shift(colsums, margin=1.0)
        assert np.all(np.abs(colsums + k) >= 0.5)

    def test_shift_scales_with_magnitude(self):
        colsums = np.array([1e6, -1e6, 0.0])
        k = choose_shift(colsums)
        assert np.all(np.abs(colsums + k) >= 0.5e6)

    def test_empty_colsums(self):
        assert choose_shift(np.array([])) > 0

    def test_deterministic(self):
        c = np.array([0.0, -1.0, 3.0])
        assert choose_shift(c) == choose_shift(c)

    def test_separation_margin_holds(self):
        rng = np.random.default_rng(0)
        colsums = rng.normal(size=200)
        k = choose_shift(colsums, margin=1.0)
        scale = max(1.0, np.abs(colsums).max())
        assert np.all(np.abs(colsums + k) >= 0.5 * scale - 1e-12)
