"""Unit tests for Chen's verification (ONLINE-DETECTION tests)."""

import numpy as np
import pytest

from repro import solve
from repro.core import chen_verify, orthogonality_check, residual_check
from repro.core.stability import VerificationReport
from repro.sparse import spmv


def run_cg_state(a, b, iters):
    """Run `iters` plain CG iterations, returning (x, r, p_next, q)."""
    x = np.zeros(a.nrows)
    r = b - spmv(a, x)
    p = r.copy()
    rr = float(r @ r)
    q = np.zeros_like(r)
    for _ in range(iters):
        q = spmv(a, p)
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rr_new = float(r @ r)
        beta = rr_new / rr
        p = r + beta * p
        rr = rr_new
    return x, r, p, q


class TestOrthogonality:
    def test_clean_cg_passes(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        _, _, p, q = run_cg_state(small_lap, b, 5)
        ok, score = orthogonality_check(p, q)
        assert ok
        assert score < 1e-10

    def test_corrupted_p_fails(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        _, _, p, q = run_cg_state(small_lap, b, 5)
        p[3] += 10.0 * np.abs(p).max()
        ok, score = orthogonality_check(p, q)
        assert not ok
        assert score > 1e-8

    def test_zero_vector_fails(self):
        ok, score = orthogonality_check(np.zeros(5), np.ones(5))
        assert not ok

    def test_nan_fails(self):
        v = np.ones(5)
        v[0] = np.nan
        ok, _ = orthogonality_check(v, np.ones(5))
        assert not ok


class TestResidual:
    def test_clean_cg_passes(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x, r, _, _ = run_cg_state(small_lap, b, 8)
        ok, gap = residual_check(small_lap, b, x, r)
        assert ok
        assert gap < 1e-10

    def test_corrupted_r_fails(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x, r, _, _ = run_cg_state(small_lap, b, 8)
        r = r + 1e-3 * np.linalg.norm(b)
        ok, gap = residual_check(small_lap, b, x, r)
        assert not ok

    def test_corrupted_x_fails(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x, r, _, _ = run_cg_state(small_lap, b, 8)
        x[7] += 1.0
        ok, _ = residual_check(small_lap, b, x, r)
        assert not ok

    def test_corrupted_matrix_fails(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x, r, _, _ = run_cg_state(small_lap, b, 8)
        a = small_lap.copy()
        a.val[4] += 1.0
        ok, _ = residual_check(a, b, x, r)
        assert not ok


class TestChenVerify:
    def test_report_fields(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x, r, p, q = run_cg_state(small_lap, b, 5)
        report = chen_verify(small_lap, b, x, r, p, q)
        assert isinstance(report, VerificationReport)
        assert report.passed
        assert report.orthogonality < 1e-10
        assert report.residual_gap < 1e-10

    def test_skip_orthogonality_at_convergence(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        res = solve(small_lap, b, faults=None, eps=1e-12)
        # At (near) convergence p and q are ~0: the conjugacy ratio is
        # meaningless and must be skippable.
        r = b - spmv(small_lap, res.x)
        report = chen_verify(
            small_lap, b, res.x, r, np.zeros_like(b), np.zeros_like(b),
            check_orthogonality=False,
        )
        assert report.passed
        assert np.isnan(report.orthogonality)

    def test_detects_single_fault_after_iterations(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x, r, p, q = run_cg_state(small_lap, b, 5)
        x[0] += np.abs(x).max() + 1.0
        report = chen_verify(small_lap, b, x, r, p, q)
        assert not report.passed
