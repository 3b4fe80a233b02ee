"""Edge-case tests for the CORRECTERRORS decoder."""

import numpy as np
import pytest

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.sparse import CSRMatrix, stencil_spd


@pytest.fixture
def arrow():
    """An arrow matrix: row 0 dense-ish, one row with a single entry."""
    n = 30
    dense = np.zeros((n, n))
    dense[0, :] = -1.0
    dense[:, 0] = -1.0
    np.fill_diagonal(dense, n + 1.0)
    return CSRMatrix.from_dense(dense)


class TestBoundaryPositions:
    def test_val_error_first_entry(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)
        a = arrow.copy()
        a.val[0] += 2.0
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(arrow)

    def test_val_error_last_entry(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)
        a = arrow.copy()
        a.val[a.nnz - 1] += 2.0
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(arrow)

    def test_rowidx_error_first_interior_pointer(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)
        a = arrow.copy()
        a.rowidx[1] += 1
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(arrow)

    def test_x_error_last_position(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)

        def hook(stage, aa, xx, yy):
            if stage == "pre":
                xx[-1] += 3.0

        xc = x.copy()
        res = protected_spmv(arrow, xc, cks, fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED
        np.testing.assert_allclose(xc, x, rtol=1e-9)

    def test_error_in_single_entry_row(self, rng):
        """A row with exactly one nonzero exercises the zC decode with
        the minimal candidate set."""
        n = 20
        dense = np.diag(np.arange(2.0, n + 2.0))
        dense[3, 7] = -1.0
        dense[7, 3] = -1.0
        a_clean = CSRMatrix.from_dense(dense)
        cks = compute_checksums(a_clean, nchecks=2)
        x = rng.normal(size=n)
        a = a_clean.copy()
        # Row 5 holds only the diagonal entry; corrupt it.
        lo = int(a.rowidx[5])
        a.val[lo] += 1.5
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(a_clean)


class TestNearMissErrors:
    def test_colid_flip_within_row_is_caught_or_explicit(self, small_lap, rng):
        """Flipping a colid to *another existing column of the same row*
        creates a duplicate — decode may fix it or reject it, never pass
        silently."""
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        lo, hi = int(a.rowidx[100]), int(a.rowidx[101])
        assert hi - lo >= 2
        a.colid[lo] = a.colid[hi - 1]  # duplicate an existing column
        res = protected_spmv(a, x.copy(), cks)
        assert res.status in (SpmvStatus.CORRECTED, SpmvStatus.UNCORRECTABLE)

    def test_zero_delta_is_noop(self, small_lap, rng):
        """'Corruption' that doesn't change the value must not flag."""
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        a.val[5] += 0.0
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.OK

    def test_nan_val_handled(self, small_lap, rng):
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        a.val[17] = np.nan
        res = protected_spmv(a, x.copy(), cks)
        # NaN poisons the row; either repaired via the checksum rebuild
        # or explicitly uncorrectable.
        assert res.status in (SpmvStatus.CORRECTED, SpmvStatus.UNCORRECTABLE)
        if res.status is SpmvStatus.CORRECTED:
            np.testing.assert_allclose(res.y, small_lap.matvec(x), rtol=1e-8)

    def test_x_strike_with_zero_column_weighting(self, rng):
        """x-error correction must work even when the struck entry's
        column in A is empty (y unaffected, dx silent, dxp catches)."""
        n = 25
        dense = np.diag(np.full(n, 3.0))
        dense[0, 1] = dense[1, 0] = -1.0
        a = CSRMatrix.from_dense(dense)
        # Column 10 of A has only the diagonal; zero it to make the
        # column empty while keeping SPD-ish structure for the test.
        dense2 = dense.copy()
        dense2[10, 10] = 0.0
        dense2[10, 11] = 1.0  # keep row 10 nonempty
        a = CSRMatrix.from_dense(dense2)
        cks = compute_checksums(a, nchecks=2)
        x = rng.normal(size=n)

        def hook(stage, aa, xx, yy):
            if stage == "pre":
                xx[10] += 2.0

        xc = x.copy()
        res = protected_spmv(a, xc, cks, fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == "x"
        np.testing.assert_allclose(xc, x, rtol=1e-9)


class TestNonMonotoneRowPointers:
    """A struck pointer can leave ``clip(rowidx, 0, nnz)`` running
    backwards; the decoder must read such a row as empty (as ``spmv``
    does) and give up cleanly, not die in ``np.repeat``."""

    def test_row_pattern_reads_backward_segments_as_empty(self):
        from repro.abft.correction import _row_counts

        a = CSRMatrix(
            np.ones(6), np.arange(6) % 3, [0, 2, 2**62, 4, 6], (4, 3), check=False
        )
        # clipped pointers 0,2,6,4,6: row 1 swallows the tail, row 2 runs
        # backwards (empty), row 3 re-reads 4..6.
        pattern = np.repeat(np.arange(a.nrows), _row_counts(a))
        assert pattern.tolist() == [0, 0, 1, 1, 1, 1, 3, 3]

    @pytest.mark.parametrize("struck", [7])
    def test_first_pointer_strike_is_uncorrectable_not_a_crash(
        self, small_lap, rng, struck
    ):
        """``rowidx[0]`` is outside the pointer checksum, so the decoder
        reaches the column-checksum comparison with it still wrong."""
        cks = compute_checksums(small_lap, nchecks=2)
        a = small_lap.copy()
        a.rowidx[0] = struck
        res = protected_spmv(a, rng.normal(size=small_lap.ncols), cks)
        assert res.status is SpmvStatus.UNCORRECTABLE

    @pytest.mark.parametrize(
        "kind, strike",
        [
            ("val", lambda a: a.val.__setitem__(1, a.val[1] + 5.0)),  # z = 1
            ("colid", lambda a: a.colid.__setitem__(1, 5)),  # z = 2
        ],
        ids=["z1-val", "z2-colid"],
    )
    def test_row0_decode_under_a_sign_flipped_first_pointer(self, kind, strike):
        """The z = 1 / z = 2 decode of row 0 reads its bounds clipped, as
        the kernel does, when ``rowidx[0]`` took a sign-bit flip."""
        from repro.faults.bitflip import flip_bit_int64

        src = stencil_spd(100, kind="cross", radius=1)
        cks = compute_checksums(src, nchecks=2)
        x = np.random.default_rng(0).standard_normal(src.ncols)
        a = src.copy()
        a.rowidx[0] = flip_bit_int64(int(a.rowidx[0]), 63)
        strike(a)
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == kind and res.correction.position == 1
        assert np.array_equal(a.val, src.val) and np.array_equal(a.colid, src.colid)
        assert np.array_equal(res.y, src.matvec(x))

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("kind", ["val", "colid"])
    def test_every_entry_of_row0_decodes_under_a_sign_flipped_first_pointer(
        self, kind, p
    ):
        """Row 0's first and last entries: the clipped bounds must cover
        the whole row, not stop one short or start one late."""
        from repro.faults.bitflip import flip_bit_int64

        src = stencil_spd(100, kind="cross", radius=1)
        assert int(src.rowidx[1]) == 3
        cks = compute_checksums(src, nchecks=2)
        x = np.random.default_rng(1).standard_normal(src.ncols)
        a = src.copy()
        a.rowidx[0] = flip_bit_int64(int(a.rowidx[0]), 63)
        if kind == "val":
            a.val[p] -= 2.5
        else:
            a.colid[p] = 50
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == kind and res.correction.position == p
        assert np.array_equal(a.val, src.val) and np.array_equal(a.colid, src.colid)
        np.testing.assert_allclose(res.y, src.matvec(x), rtol=1e-12)
