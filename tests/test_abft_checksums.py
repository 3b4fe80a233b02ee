"""Unit tests for checksum precomputation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.abft import compute_checksums
from repro.abft.checksums import exact_rowidx_checksums
from repro.sparse import graph_laplacian_spd

_INT64 = np.iinfo(np.int64)


class TestComputeChecksums:
    def test_column_checksums_match_dense(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=2)
        dense = small_lap.to_dense()
        np.testing.assert_allclose(cks.column_checksums[0], dense.sum(axis=0), rtol=1e-12)
        w2 = np.arange(1, small_lap.nrows + 1)
        np.testing.assert_allclose(cks.column_checksums[1], w2 @ dense, rtol=1e-12)

    def test_shifted_first_row_has_no_zeros(self):
        # Graph Laplacian: all (unshifted−shift) column sums equal the
        # diagonal shift; choose a shift making sums zero-prone.
        a = graph_laplacian_spd(60, 4, seed=0, shift=1.0)
        cks = compute_checksums(a, nchecks=1)
        assert np.all(np.abs(cks.shifted_first_row) > 0)

    def test_shifted_first_row_is_stored_once(self, small_lap):
        # Every single-check verification reads it: a field, not a sum
        # recomputed per call — and the same floats as that sum.
        cks = compute_checksums(small_lap, nchecks=1)
        assert cks.shifted_first_row is cks.shifted_first_row
        want = cks.column_checksums[0] + cks.shift
        assert cks.shifted_first_row.tobytes() == want.tobytes()

    def test_rowidx_checksums(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=2)
        ridx = small_lap.rowidx[1:].astype(float)
        assert cks.rowidx_checksums[0] == pytest.approx(ridx.sum())
        w2 = np.arange(1, small_lap.nrows + 1)
        assert cks.rowidx_checksums[1] == pytest.approx(w2 @ ridx)

    def test_exact_rowidx_checksums_are_ints(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=2)
        assert all(isinstance(v, int) for v in cks.rowidx_checksums_exact)
        assert cks.rowidx_checksums_exact[0] == int(small_lap.rowidx[1:].sum())

    @given(
        nnz=st.integers(0, 2**40),
        picks=st.lists(st.sampled_from(["-2**63", "2**63-1", "-1", "0", "nnz", "any"]),
                       max_size=40),
        fill=st.integers(_INT64.min, _INT64.max),
    )
    def test_exact_rowidx_checksums_equal_the_python_int_loop(self, nnz, picks, fill):
        # Struck pointers hold anything an int64 can: the boxed object
        # sums must equal the plain Python-int loop, never wrap.
        value = {"-2**63": _INT64.min, "2**63-1": _INT64.max, "-1": -1, "0": 0,
                 "nnz": nnz, "any": fill}
        rowidx = np.array([0] + [value[p] for p in picks], dtype=np.int64)
        ints = [int(v) for v in rowidx[1:]]
        want = (sum(ints), sum((i + 1) * v for i, v in enumerate(ints)))
        assert exact_rowidx_checksums(rowidx, 2) == want
        assert exact_rowidx_checksums(rowidx, 1) == want[:1]
        assert all(type(v) is int for v in exact_rowidx_checksums(rowidx, 2))

    def test_x_checksums(self, small_lap, rng):
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        cx = cks.x_checksums(x)
        assert cx[0] == pytest.approx(x.sum())
        assert cx[1] == pytest.approx(np.arange(1, x.size + 1) @ x)

    def test_nchecks_one_shape(self, small_lap):
        cks = compute_checksums(small_lap, nchecks=1)
        assert cks.weights.shape == (1, small_lap.nrows)
        assert cks.column_checksums.shape == (1, small_lap.ncols)
        assert len(cks.rowidx_checksums_exact) == 1

    def test_setup_cost_is_amortizable(self, small_lap, rng):
        """The same checksum object must validate many products."""
        from repro.abft import protected_spmv, SpmvStatus

        cks = compute_checksums(small_lap, nchecks=2)
        for _ in range(5):
            x = rng.normal(size=small_lap.ncols)
            assert protected_spmv(small_lap, x, cks).status is SpmvStatus.OK
