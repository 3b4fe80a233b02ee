"""Unit tests for CSR norms and checksum reductions."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sparse import norm1, norm_inf, column_sums, row_sums
from repro.sparse.norms import max_col_nnz, max_row_nnz, norm2
from tests.conftest import dense_random_csr


class TestNorms:
    def test_norm1_matches_dense(self, rng):
        a = dense_random_csr(rng, 15, 10, 0.4)
        assert norm1(a) == pytest.approx(np.abs(a.to_dense()).sum(axis=0).max())

    def test_norm_inf_matches_dense(self, rng):
        a = dense_random_csr(rng, 15, 10, 0.4)
        assert norm_inf(a) == pytest.approx(np.abs(a.to_dense()).sum(axis=1).max())

    def test_norms_of_laplacian(self, small_lap):
        # Symmetric matrix: 1-norm equals inf-norm.
        assert norm1(small_lap) == pytest.approx(norm_inf(small_lap))
        assert norm1(small_lap) <= 8.0 + 1e-12  # 5-point stencil bound


class TestColumnSums:
    def test_unweighted_matches_dense(self, rng):
        a = dense_random_csr(rng, 12, 9, 0.5)
        np.testing.assert_allclose(column_sums(a), a.to_dense().sum(axis=0))

    def test_weighted_matches_dense(self, rng):
        a = dense_random_csr(rng, 12, 9, 0.5)
        w = rng.normal(size=12)
        np.testing.assert_allclose(column_sums(a, weights=w), w @ a.to_dense())

    def test_weight_length_checked(self, small_lap):
        with pytest.raises(ValueError, match="weights"):
            column_sums(small_lap, weights=np.ones(3))

    def test_row_sums_matches_dense(self, rng):
        a = dense_random_csr(rng, 12, 9, 0.5)
        np.testing.assert_allclose(row_sums(a), a.to_dense().sum(axis=1))

    def test_row_sums_with_empty_rows(self, rng):
        a = dense_random_csr(rng, 30, 30, 0.05)  # some rows likely empty
        np.testing.assert_allclose(row_sums(a), a.to_dense().sum(axis=1))


class TestNnzCounts:
    def test_max_row_nnz(self, rng):
        a = dense_random_csr(rng, 20, 20, 0.3)
        assert max_row_nnz(a) == int((a.to_dense() != 0).sum(axis=1).max())

    def test_max_col_nnz(self, rng):
        a = dense_random_csr(rng, 20, 20, 0.3)
        assert max_col_nnz(a) == int((a.to_dense() != 0).sum(axis=0).max())

    def test_laplacian_max_col_nnz_is_stencil_size(self, small_lap):
        assert max_col_nnz(small_lap) == 5


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300]),
)


class TestNorm2:
    """``norm2`` is ``np.linalg.norm`` of a float64 vector, bit for bit:
    the engine's stopping threshold is built from it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        values=st.lists(_ENTRIES, min_size=0, max_size=300),
        step=st.sampled_from([1, 2, 3, -1, -2]),
    )
    def test_matches_numpy_norm_on_any_layout(self, values, step):
        v = np.array(values, dtype=np.float64)[::step]  # strided and reversed views too
        want = float(np.linalg.norm(v))
        assert struct.pack("<d", norm2(v)) == struct.pack("<d", want)
