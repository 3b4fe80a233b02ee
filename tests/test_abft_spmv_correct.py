"""Unit tests for ABFT single-error correction (Algorithm 2 decode paths)."""

import numpy as np
import pytest

from repro.abft import compute_checksums, protected_spmv, SpmvStatus
from repro.faults.bitflip import flip_bit_float64, flip_bit_int64


def assert_corrected(res, kind):
    assert res.status is SpmvStatus.CORRECTED
    assert res.correction is not None
    assert res.correction.kind == kind


class TestValCorrection:
    @pytest.mark.parametrize("pos", [0, 57, 500, -1])
    def test_additive_error_repaired(self, small_lap, checks2, xvec, pos):
        a = small_lap.copy()
        pos = pos % a.nnz
        a.val[pos] += 2.5
        res = protected_spmv(a, xvec.copy(), checks2)
        assert_corrected(res, "val")
        assert a.equals(small_lap)
        np.testing.assert_allclose(res.y, small_lap.matvec(xvec), rtol=1e-9)

    @pytest.mark.parametrize("bit", [62])
    def test_bit_flip_repaired(self, small_lap, checks2, xvec, bit):
        a = small_lap.copy()
        a.val[123] = flip_bit_float64(a.val[123], bit)
        res = protected_spmv(a, xvec.copy(), checks2)
        assert_corrected(res, "val")
        np.testing.assert_allclose(a.val, small_lap.val, rtol=1e-8)


class TestColidCorrection:
    def test_moved_entry_restored(self, small_lap, checks2, xvec):
        a = small_lap.copy()
        lo = int(a.rowidx[33])
        original = int(a.colid[lo])
        a.colid[lo] = (original + 11) % a.ncols
        res = protected_spmv(a, xvec.copy(), checks2)
        assert_corrected(res, "colid")
        assert int(a.colid[lo]) == original

    def test_out_of_range_colid_restored(self, small_lap, checks2, xvec):
        a = small_lap.copy()
        lo = int(a.rowidx[50])
        original = int(a.colid[lo])
        a.colid[lo] = flip_bit_int64(original, 45)  # far out of range
        res = protected_spmv(a, xvec.copy(), checks2)
        assert res.status is SpmvStatus.CORRECTED
        assert int(a.colid[lo]) % a.ncols == original
        np.testing.assert_allclose(res.y, small_lap.matvec(xvec), rtol=1e-9)


class TestRowidxCorrection:
    @pytest.mark.parametrize("delta", [1, -1, 2, 37])
    def test_additive_error_repaired(self, small_lap, checks2, xvec, delta):
        a = small_lap.copy()
        a.rowidx[150] += delta
        res = protected_spmv(a, xvec.copy(), checks2)
        assert_corrected(res, "rowidx")
        assert a.equals(small_lap)
        np.testing.assert_allclose(res.y, small_lap.matvec(xvec), rtol=1e-9)

    def test_last_pointer_flip_repaired(self, small_lap, checks2, xvec):
        a = small_lap.copy()
        a.rowidx[a.nrows] += 3
        res = protected_spmv(a, xvec.copy(), checks2)
        assert_corrected(res, "rowidx")
        assert a.equals(small_lap)


class TestXCorrection:
    @pytest.mark.parametrize("pos", [0, 100, 399])
    def test_input_error_repaired(self, small_lap, checks2, xvec, pos):
        x = xvec.copy()

        def hook(stage, a, xx, y):
            if stage == "pre":
                xx[pos] += 1.75

        res = protected_spmv(small_lap, x, checks2, fault_hook=hook)
        assert_corrected(res, "x")
        np.testing.assert_allclose(x, xvec, rtol=1e-9)
        np.testing.assert_allclose(res.y, small_lap.matvec(xvec), rtol=1e-8)


class TestComputationCorrection:
    @pytest.mark.parametrize("pos", [0, 13, 399])
    def test_output_error_repaired(self, small_lap, checks2, xvec, pos):
        def hook(stage, a, xx, y):
            if stage == "post":
                y[pos] += 3.25

        res = protected_spmv(small_lap, xvec.copy(), checks2, fault_hook=hook)
        assert_corrected(res, "computation")
        np.testing.assert_allclose(res.y, small_lap.matvec(xvec), rtol=1e-9)


class TestDoubleErrors:
    def test_two_val_errors_uncorrectable(self, small_lap, checks2, xvec):
        a = small_lap.copy()
        a.val[10] += 1.0
        a.val[800] += 2.0
        res = protected_spmv(a, xvec.copy(), checks2)
        assert res.status is SpmvStatus.UNCORRECTABLE
        assert not res.trusted

    def test_val_plus_x_uncorrectable_or_detected(self, small_lap, checks2, xvec):
        a = small_lap.copy()
        a.val[10] += 1.0

        def hook(stage, aa, xx, y):
            if stage == "pre":
                xx[50] += 1.0

        res = protected_spmv(a, xvec.copy(), checks2, fault_hook=hook)
        assert res.status is SpmvStatus.UNCORRECTABLE

    def test_two_rowidx_errors_uncorrectable(self, small_lap, checks2, xvec):
        a = small_lap.copy()
        a.rowidx[100] += 1
        a.rowidx[200] += 5
        res = protected_spmv(a, xvec.copy(), checks2)
        assert res.status is SpmvStatus.UNCORRECTABLE

    def test_opposite_rowidx_errors_uncorrectable(self, small_lap, checks2, xvec):
        # dr[0] cancels; dr[1] does not — the inconsistency must be seen.
        a = small_lap.copy()
        a.rowidx[100] += 2
        a.rowidx[200] -= 2
        res = protected_spmv(a, xvec.copy(), checks2)
        assert res.status is SpmvStatus.UNCORRECTABLE

    def test_two_y_errors_uncorrectable(self, small_lap, checks2, xvec):
        def hook(stage, a, xx, y):
            if stage == "post":
                y[3] += 1.0
                y[300] -= 2.0

        res = protected_spmv(small_lap, xvec.copy(), checks2, fault_hook=hook)
        assert res.status is SpmvStatus.UNCORRECTABLE


class TestOnTheFlyChecksums:
    def test_checksums_computed_when_omitted(self, small_lap, xvec):
        res = protected_spmv(small_lap, xvec)
        assert res.status is SpmvStatus.OK
