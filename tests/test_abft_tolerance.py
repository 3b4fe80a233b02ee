"""Unit tests for the Theorem-2 floating-point tolerance."""

import numpy as np
import pytest

from repro.abft import compute_checksums, gamma, protected_spmv, spmv_checksum_tolerance, SpmvStatus
from repro.abft.tolerance import ToleranceModel, UNIT_ROUNDOFF
from repro.faults.bitflip import flip_bit_float64
from repro.sim.matrices import get_matrix, suite_specs
from repro.sparse import random_spd, stencil_spd


class TestGamma:
    def test_small_m(self):
        assert gamma(1) == pytest.approx(UNIT_ROUNDOFF, rel=1e-10)

    def test_monotone_in_m(self):
        assert gamma(10) < gamma(100) < gamma(10**6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            gamma(-1)

    def test_rejects_mu_ge_one(self):
        with pytest.raises(ValueError, match="undefined"):
            gamma(2**60)

    def test_zero(self):
        assert gamma(0) == 0.0


class TestBound:
    def test_formula(self):
        got = spmv_checksum_tolerance(n=100, c_inf=2.0, norm1_a=3.0, x_inf=4.0)
        expect = 2.0 * gamma(200) * 100 * 2.0 * 3.0 * 4.0
        assert got == pytest.approx(expect)

    def test_threshold_scales_with_x(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=2)
        t1 = cks.tolerance.thresholds(1.0)
        t10 = cks.tolerance.thresholds(10.0)
        np.testing.assert_allclose(t10, 10 * t1)

    def test_threshold_positive_even_for_zero_x(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=2)
        assert np.all(cks.tolerance.thresholds(0.0) > 0)


class TestNoFalsePositives:
    """The paper's guarantee: a fault-free run never trips the detector."""

    @pytest.mark.parametrize("nchecks", [1, 2])
    def test_many_clean_products(self, nchecks):
        rng = np.random.default_rng(99)
        a = random_spd(400, 0.03, seed=4)
        cks = compute_checksums(a, nchecks=nchecks)
        for _ in range(50):
            x = rng.normal(size=a.ncols) * rng.choice([1e-6, 1.0, 1e6])
            res = protected_spmv(a, x, cks, correct=(nchecks == 2))
            assert res.status is SpmvStatus.OK

    def test_clean_products_ill_conditioned(self):
        rng = np.random.default_rng(3)
        a = stencil_spd(900, kind="box", radius=2)
        cks = compute_checksums(a, nchecks=2)
        for _ in range(25):
            x = rng.normal(size=a.ncols)
            assert protected_spmv(a, x, cks).status is SpmvStatus.OK

    @pytest.mark.parametrize("uid", [spec.uid for spec in suite_specs()])
    def test_clean_products_on_suite_matrix(self, uid):
        """Clean products whose magnitudes span 10⁻⁴…10⁴ never trip
        the detector on a suite matrix."""
        a = get_matrix(uid, 32)
        cks = compute_checksums(a, nchecks=2)
        rng = np.random.default_rng(uid)
        for _ in range(40):
            x = rng.normal(size=a.ncols) * 10.0 ** rng.integers(-4, 5)
            assert protected_spmv(a, x, cks).status is SpmvStatus.OK

    def test_residuals_below_threshold_clean(self, small_lap, rng):
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        res = protected_spmv(small_lap, x, cks).residuals
        assert res.clean
        assert np.all(np.abs(res.dx) <= res.thresholds)


class TestFalseNegativesAreSmall:
    """Sub-threshold errors exist (the paper allows them) but their
    magnitude is bounded by the tolerance itself."""

    def test_tiny_perturbation_passes_silently(self, small_lap, rng):
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        a.val[0] += 1e-14  # far below tolerance
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.OK
        # And the induced output error is negligible.
        assert np.abs(res.y - small_lap.matvec(x)).max() < 1e-10

    @pytest.mark.parametrize("bit", range(0, 52, 4))
    def test_undetected_mantissa_flip_is_negligible(self, bit):
        """A flipped mantissa bit of one ``val`` word (suite #924) is
        either detected or moves the product by < 1e-8 of its ∞-norm."""
        clean = get_matrix(924, 32)
        cks = compute_checksums(clean, nchecks=2)
        x = np.random.default_rng(7).normal(size=clean.ncols)
        y_true = clean.matvec(x)
        a = clean.copy()
        pos = 1234 % a.nnz
        a.val[pos] = flip_bit_float64(a.val[pos], bit)
        res = protected_spmv(a, x.copy(), cks)
        if res.status is SpmvStatus.OK:
            assert np.abs(res.y - y_true).max() < 1e-8 * np.abs(y_true).max()

    def test_moderate_perturbation_caught(self, small_lap, rng):
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        a.val[0] += 1e-3
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED


class TestToleranceModel:
    def test_for_matrix_shapes(self):
        tm = ToleranceModel.for_matrix(
            n=50, norm1_a=4.0, weights_inf=np.array([1.0, 50.0]), shifted_c_inf=6.0
        )
        assert tm.per_check_factor.shape == (2,)
        assert np.all(tm.per_check_factor > 0)
        # Ramp-weight row has the larger factor.
        assert tm.per_check_factor[1] > tm.per_check_factor[0]
