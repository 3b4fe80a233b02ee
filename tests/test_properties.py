"""Property-based tests (hypothesis) for the core invariants.

The headline property is the paper's Theorem 1 / Algorithm 2 guarantee:
*any* single error — any position, any magnitude above the Theorem-2
tolerance, in any of the five protected locations — is detected, and in
correction mode repaired to the exact clean product.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.faults.bitflip import flip_bit_float64, flip_bit_int64
from repro.model import expected_frame_time, frame_overhead
from repro.sparse import CSRMatrix, laplacian_2d, spmv, spmv_reference

# One fixed protected matrix for the ABFT properties (checksums are
# per-matrix; rebuilding them per example would dominate runtime).
_A = laplacian_2d(12)  # 144×144
_CKS2 = compute_checksums(_A, nchecks=2)
_CKS1 = compute_checksums(_A, nchecks=1)
_X = np.random.default_rng(0).normal(size=_A.ncols)


# ----------------------------------------------------------------------
# CSR / SpMxV properties
# ----------------------------------------------------------------------
@st.composite
def csr_and_vector(draw):
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    density = draw(st.floats(0.05, 0.9))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((nrows, ncols)) < density, rng.normal(size=(nrows, ncols)), 0.0)
    x = rng.normal(size=ncols)
    return CSRMatrix.from_dense(dense), dense, x


@given(csr_and_vector())
@settings(max_examples=60, deadline=None)
def test_spmv_matches_dense(data):
    a, dense, x = data
    np.testing.assert_allclose(spmv(a, x), dense @ x, rtol=1e-10, atol=1e-12)


@given(csr_and_vector())
@settings(max_examples=40, deadline=None)
def test_vectorized_kernel_matches_reference(data):
    a, _, x = data
    np.testing.assert_allclose(spmv(a, x), spmv_reference(a, x), rtol=1e-10, atol=1e-12)


@given(csr_and_vector())
@settings(max_examples=40, deadline=None)
def test_dense_roundtrip(data):
    a, dense, _ = data
    np.testing.assert_array_equal(a.to_dense(), dense)


@given(csr_and_vector(), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_spmv_linearity(data, alpha, beta):
    a, _, x = data
    y = np.random.default_rng(1).normal(size=a.ncols)
    lhs = spmv(a, alpha * x + beta * y)
    rhs = alpha * spmv(a, x) + beta * spmv(a, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# ABFT properties: any single error above tolerance is caught/repaired
# ----------------------------------------------------------------------
@given(
    pos=st.integers(0, _A.nnz - 1),
    bit=st.integers(30, 62),  # above-tolerance magnitude flips
)
@settings(max_examples=60, deadline=None)
def test_any_val_bitflip_detected_and_corrected(pos, bit):
    a = _A.copy()
    old = a.val[pos]
    a.val[pos] = flip_bit_float64(old, bit)
    if a.val[pos] == old:  # degenerate flip
        return
    res = protected_spmv(a, _X.copy(), _CKS2)
    assert res.status in (SpmvStatus.CORRECTED, SpmvStatus.UNCORRECTABLE)
    if res.status is SpmvStatus.CORRECTED:
        np.testing.assert_allclose(res.y, _A.matvec(_X), rtol=1e-8)
        np.testing.assert_allclose(a.val, _A.val, rtol=1e-8)


@given(pos=st.integers(1, _A.nrows), bit=st.integers(0, 63))
@settings(max_examples=60, deadline=None)
def test_any_rowidx_bitflip_corrected(pos, bit):
    a = _A.copy()
    old = int(a.rowidx[pos])
    new = flip_bit_int64(old, bit)
    if new == old:
        return
    a.rowidx[pos] = new
    res = protected_spmv(a, _X.copy(), _CKS2)
    assert res.status is SpmvStatus.CORRECTED
    assert res.correction.kind == "rowidx"
    assert a.equals(_A)
    np.testing.assert_allclose(res.y, _A.matvec(_X), rtol=1e-8)


@given(pos=st.integers(0, _A.ncols - 1), delta=st.floats(0.05, 1e6))
@settings(max_examples=60, deadline=None)
def test_any_x_perturbation_corrected(pos, delta):
    def hook(stage, a, x, y):
        if stage == "pre":
            x[pos] += delta

    x = _X.copy()
    res = protected_spmv(_A, x, _CKS2, fault_hook=hook)
    assert res.status is SpmvStatus.CORRECTED
    assert res.correction.kind == "x"
    np.testing.assert_allclose(x, _X, rtol=1e-7, atol=1e-9)


@given(pos=st.integers(0, _A.nrows - 1), delta=st.floats(0.05, 1e6))
@settings(max_examples=60, deadline=None)
def test_any_y_perturbation_corrected(pos, delta):
    def hook(stage, a, x, y):
        if stage == "post":
            y[pos] += delta

    res = protected_spmv(_A, _X.copy(), _CKS2, fault_hook=hook)
    assert res.status is SpmvStatus.CORRECTED
    np.testing.assert_allclose(res.y, _A.matvec(_X), rtol=1e-8)


@given(pos=st.integers(0, _A.nnz - 1), delta=st.floats(0.05, 1e3))
@settings(max_examples=40, deadline=None)
def test_detection_mode_flags_val_errors(pos, delta):
    a = _A.copy()
    a.val[pos] += delta
    res = protected_spmv(a, _X.copy(), _CKS1, correct=False)
    assert res.status is SpmvStatus.DETECTED


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_clean_product_never_flagged(seed):
    """No false positives, whatever the input vector's scale."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=_A.ncols) * 10.0 ** rng.integers(-8, 8)
    assert protected_spmv(_A, x, _CKS2).status is SpmvStatus.OK


# ----------------------------------------------------------------------
# Performance-model properties
# ----------------------------------------------------------------------
@given(
    s=st.integers(1, 50),
    t=st.floats(0.1, 10),
    tcp=st.floats(0, 5),
    trec=st.floats(0, 5),
    tv=st.floats(0, 2),
    q=st.floats(0.2, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_frame_time_bounds(s, t, tcp, trec, tv, q):
    e = expected_frame_time(s, t, tcp, trec, tv, q)
    # Never cheaper than the error-free execution.
    assert e >= s * (t + tv) + tcp - 1e-9
    # Finite for q bounded away from 0.
    assert np.isfinite(e)


@given(
    s=st.integers(1, 30),
    q1=st.floats(0.3, 0.999),
    q2=st.floats(0.3, 0.999),
)
@settings(max_examples=60, deadline=None)
def test_frame_time_monotone_in_q(s, q1, q2):
    lo, hi = sorted((q1, q2))
    e_hi_q = expected_frame_time(s, 1.0, 1.0, 1.0, 0.2, hi)
    e_lo_q = expected_frame_time(s, 1.0, 1.0, 1.0, 0.2, lo)
    assert e_lo_q >= e_hi_q - 1e-9


@given(st.integers(1, 100))
@settings(max_examples=30, deadline=None)
def test_overhead_exceeds_one(s):
    assert frame_overhead(s, 1.0, 0.5, 0.5, 0.1, 0.95) > 1.0
