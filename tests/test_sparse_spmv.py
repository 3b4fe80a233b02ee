"""Unit tests for the SpMxV kernels (vectorized vs reference oracle)."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, spmv, spmv_reference
from tests.conftest import dense_random_csr
from tests.test_wild_reads import legacy_spmv


class TestAgainstDense:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (13, 7), (7, 13), (40, 40)])
    def test_matches_dense_product(self, rng, shape):
        a = dense_random_csr(rng, *shape, 0.4)
        x = rng.normal(size=shape[1])
        expected = a.to_dense() @ x
        np.testing.assert_allclose(spmv(a, x), expected, rtol=1e-12)
        a.assume_clean_structure()  # the stamped fast path agrees too
        np.testing.assert_allclose(spmv(a, x), expected, rtol=1e-12)

    def test_vectorized_matches_reference(self, small_spd, rng):
        x = rng.normal(size=small_spd.ncols)
        np.testing.assert_allclose(spmv(small_spd, x), spmv_reference(small_spd, x), rtol=1e-12)

    def test_empty_matrix(self):
        a = CSRMatrix(np.array([]), np.array([], dtype=np.int64), np.zeros(4, dtype=np.int64), (3, 3))
        np.testing.assert_array_equal(spmv(a, np.ones(3)), np.zeros(3))

    def test_empty_rows(self):
        # Row 1 has no nonzeros.
        a = CSRMatrix(
            np.array([1.0, 2.0]), np.array([0, 2]), np.array([0, 1, 1, 2]), (3, 3)
        )
        np.testing.assert_array_equal(spmv(a, np.ones(3)), [1.0, 0.0, 2.0])

    def test_wrong_x_length_rejected(self, small_lap):
        with pytest.raises(ValueError, match="shape"):
            spmv(small_lap, np.ones(small_lap.ncols + 1))
        with pytest.raises(ValueError, match="shape"):
            spmv_reference(small_lap, np.ones(small_lap.ncols + 1))


class TestCorruptedStructure:
    """Corrupted matrices must produce *wrong answers*, never crashes."""

    def test_out_of_range_colid_is_wrapped(self, small_lap, rng):
        a = small_lap.copy()
        a.colid[10] = a.ncols + 5  # out of range
        x = rng.normal(size=a.ncols)
        y = spmv(a, x)
        assert np.all(np.isfinite(y))
        ref = spmv_reference(a, x)
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_negative_colid_is_wrapped(self, small_lap, rng):
        a = small_lap.copy()
        a.colid[10] = -3
        x = rng.normal(size=a.ncols)
        np.testing.assert_allclose(spmv(a, x), spmv_reference(a, x), rtol=1e-12)

    def test_huge_rowidx_clipped(self, small_lap, rng):
        a = small_lap.copy()
        a.rowidx[5] = 2**40
        x = rng.normal(size=a.ncols)
        y = spmv(a, x)
        assert y.shape == (a.nrows,)

    def test_decreasing_rowidx_falls_back_to_loop(self, small_lap, rng):
        a = small_lap.copy()
        a.rowidx[5] = 0  # non-monotone
        x = rng.normal(size=a.ncols)
        y = spmv(a, x)
        ref = spmv_reference(a, x)
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_corruption_actually_changes_result(self, small_lap, rng):
        x = rng.normal(size=small_lap.ncols)
        clean = spmv(small_lap, x)
        a = small_lap.copy()
        a.val[17] += 10.0
        assert not np.allclose(spmv(a, x), clean)


class TestCorruptedRowidxBranches:
    """Directed coverage of spmv's two corrupted-``rowidx`` code paths.

    The vectorized kernel has two rarely-taken branches that only a
    corrupted row-pointer array can reach: the batched row dots of
    ``_row_dots`` (non-monotone segments break ``np.add.reduceat``'s
    precondition) and the overshoot trim (a shrunk final pointer makes
    ``reduceat`` sum the last segment past its row's end).  Both must
    reproduce the legacy guarded branch — its per-row ``@`` loop and
    ``.sum()`` trim — byte for byte on the *same corrupted bytes*, with
    and without a scratch buffer.
    """

    def _assert_matches_reference(self, a, rng):
        x = rng.normal(size=a.ncols)
        y = spmv(a, x)
        assert y.shape == (a.nrows,)
        want = legacy_spmv(a, x).tobytes()
        assert y.tobytes() == want
        scratch = np.full(a.nnz, 3.0)
        assert spmv(a, x, out=np.empty(a.nrows), scratch=scratch).tobytes() == want
        return y

    def test_non_monotone_rowidx_takes_loop_fallback(self, small_lap, rng, monkeypatch):
        import importlib

        mod = importlib.import_module("repro.sparse.spmv")
        a = small_lap.copy()
        a.rowidx[7] = int(a.rowidx[9])  # start[7] > start[8]: non-monotone
        a.rowidx[8] = 1
        calls = []
        real = mod._row_dots
        monkeypatch.setattr(
            mod, "_row_dots", lambda *args: calls.append(1) or real(*args)
        )
        self._assert_matches_reference(a, rng)
        assert calls, "corrupted rowidx should have routed through _row_dots"

    def test_clean_matrix_avoids_loop_fallback(self, small_lap, rng, monkeypatch):
        import importlib

        mod = importlib.import_module("repro.sparse.spmv")
        monkeypatch.setattr(
            mod, "_row_dots",
            lambda *args: pytest.fail("clean matrix must stay on reduceat"),
        )
        x = rng.normal(size=small_lap.ncols)
        assert spmv(small_lap, x).tobytes() == legacy_spmv(small_lap, x).tobytes()

    def test_end_below_start_takes_loop_fallback(self, small_lap, rng):
        a = small_lap.copy()
        # Clipped to 0, pointer 5 falls below pointer 4: ends[4] < starts[4].
        a.rowidx[5] = -17
        self._assert_matches_reference(a, rng)

    def test_shrunk_final_pointer_takes_overshoot_trim(self, small_lap, rng):
        a = small_lap.copy()
        # The last nonempty segment now ends before nnz, so reduceat
        # sums the tail of `products` past the row's true end; the trim
        # pass must re-sum exactly products[start:end].
        a.rowidx[-1] = int(a.rowidx[-2]) + 1
        y = self._assert_matches_reference(a, rng)
        # The last row must only see its single remaining nonzero.
        lo = int(a.rowidx[-2])
        x_used = np.zeros(a.ncols)
        x_used[a.colid[lo]] = 1.0
        assert spmv(a, x_used)[-1] == pytest.approx(a.val[lo])

    def test_shrunk_middle_trailing_pointers_trim_each_segment(self, small_lap, rng):
        a = small_lap.copy()
        # Shrink the last three pointers: three one-entry rows, the last
        # of which ends before nnz (each earlier row ends where the next
        # starts, so only the final segment ever overshoots).
        base = int(a.rowidx[-4])
        a.rowidx[-3] = base + 1
        a.rowidx[-2] = base + 2
        a.rowidx[-1] = base + 3
        self._assert_matches_reference(a, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rowidx_corruption_matches_reference(self, small_lap, seed):
        rng = np.random.default_rng(seed)
        a = small_lap.copy()
        for _ in range(3):
            pos = int(rng.integers(a.rowidx.size))
            a.rowidx[pos] = int(rng.integers(-5, a.nnz + 5))
        self._assert_matches_reference(a, rng)
