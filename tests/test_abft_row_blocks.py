"""ABFT on rectangular row blocks (the paper's Section-1 parallel remark).

A rank of a row-partitioned SpMxV holds an ``m × n`` block of rows and
protects its local product with its own checksums; the output rows are
disjoint, so local detection and correction imply global detection and
correction.  :func:`repro.abft.compute_checksums` and
:func:`repro.abft.protected_spmv` take such a block directly: row
weights over its ``m`` rows, column weights over the ``n`` entries of
the input it reads.  These tests cut the blocks by hand and run every
decode path on them.
"""

import numpy as np
import pytest

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.sparse import CSRMatrix
from repro.sparse.spmv import spmv


def row_block(a: CSRMatrix, lo: int, hi: int) -> CSRMatrix:
    """Rows ``lo:hi`` of ``a`` as an ``(hi − lo) × n`` CSR block (copies)."""
    start, stop = int(a.rowidx[lo]), int(a.rowidx[hi])
    return CSRMatrix(
        a.val[start:stop].copy(),
        a.colid[start:stop].copy(),
        (a.rowidx[lo : hi + 1] - a.rowidx[lo]).copy(),
        (hi - lo, a.ncols),
    )


def blocks(a: CSRMatrix, p: int) -> "list[CSRMatrix]":
    """``p`` blocks of (nearly) equal row counts covering ``a``."""
    bounds = np.linspace(0, a.nrows, p + 1).astype(int)
    return [row_block(a, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.fixture
def block(small_lap):
    """The second of four 100 × 400 blocks of the 400 × 400 Laplacian."""
    return blocks(small_lap, 4)[1]


def _strike_val(pos, delta):
    def hook(stage, blk, xx, yy):
        if stage == "pre":
            blk.val[pos] += delta

    return hook


class TestCleanBlocks:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_blocks_pass_and_reassemble_the_product(self, small_lap, xvec, p):
        parts = blocks(small_lap, p)
        results = [
            protected_spmv(blk, xvec.copy(), compute_checksums(blk, nchecks=2))
            for blk in parts
        ]
        assert all(r.status is SpmvStatus.OK for r in results)
        assert np.array_equal(np.concatenate([r.y for r in results]), spmv(small_lap, xvec))


class TestBlockCorrection:
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_val_error_in_any_block_corrected(self, small_lap, xvec, rank):
        blk = blocks(small_lap, 4)[rank]
        clean = blk.copy()
        res = protected_spmv(
            blk, xvec.copy(), compute_checksums(clean, nchecks=2),
            fault_hook=_strike_val(5, 3.0),
        )
        assert res.status is SpmvStatus.CORRECTED and res.correction.kind == "val"
        assert blk.equals(clean)
        np.testing.assert_allclose(res.y, clean.matvec(xvec), rtol=1e-9)

    @pytest.mark.parametrize("pos", [0, 17, 399])
    def test_input_error_corrected_by_the_column_weights(self, block, xvec, pos):
        """The block reads all ``n`` inputs; its input test weighs them
        with the column weights, so ``dxp₂/dxp₁`` names the entry."""
        cks = compute_checksums(block, nchecks=2)
        x = xvec.copy()

        def hook(stage, blk, xx, yy):
            if stage == "pre":
                xx[pos] += 4.0

        res = protected_spmv(block, x, cks, fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED and res.correction.kind == "x"
        assert res.correction.position == pos
        np.testing.assert_allclose(x, xvec, rtol=1e-12)
        np.testing.assert_allclose(res.y, block.matvec(xvec), rtol=1e-9)

    def test_colid_error_corrected(self, block, xvec):
        clean = block.copy()
        cks = compute_checksums(clean, nchecks=2)
        p = int(block.rowidx[33])
        block.colid[p] = (int(block.colid[p]) + 11) % block.ncols
        res = protected_spmv(block, xvec.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED and res.correction.kind == "colid"
        assert block.equals(clean)
        np.testing.assert_allclose(res.y, clean.matvec(xvec), rtol=1e-9)

    def test_rowidx_error_corrected(self, block, xvec):
        clean = block.copy()
        cks = compute_checksums(clean, nchecks=2)
        block.rowidx[50] += 2
        res = protected_spmv(block, xvec.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED and res.correction.kind == "rowidx"
        assert res.correction.position == 50
        assert block.equals(clean)
        np.testing.assert_allclose(res.y, clean.matvec(xvec), rtol=1e-9)

    def test_output_error_corrected(self, block, xvec):
        def hook(stage, blk, xx, yy):
            if stage == "post":
                yy[7] += 3.25

        res = protected_spmv(block, xvec.copy(), compute_checksums(block), fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == "computation" and res.correction.position == 7
        np.testing.assert_allclose(res.y, block.matvec(xvec), rtol=1e-9)

    def test_one_error_per_block_is_single_on_each(self, small_lap, xvec):
        """Two strikes on two blocks are two correctable single errors —
        the per-rank budget a global checksum set does not have."""
        parts = blocks(small_lap, 4)
        cks = [compute_checksums(blk, nchecks=2) for blk in parts]
        hooks = {0: _strike_val(3, 2.0), 2: _strike_val(8, 2.0)}
        results = [
            protected_spmv(blk, xvec.copy(), c, fault_hook=hooks.get(r))
            for r, (blk, c) in enumerate(zip(parts, cks))
        ]
        assert [r.status for r in results] == [
            SpmvStatus.CORRECTED, SpmvStatus.OK, SpmvStatus.CORRECTED, SpmvStatus.OK
        ]
        np.testing.assert_allclose(
            np.concatenate([r.y for r in results]), small_lap.matvec(xvec), rtol=1e-9
        )

    def test_double_error_in_one_block_uncorrectable(self, block, xvec):
        cks = compute_checksums(block, nchecks=2)

        def hook(stage, blk, xx, yy):
            if stage == "pre":
                blk.val[3] += 1.0
                blk.val[40] += 2.0

        res = protected_spmv(block, xvec.copy(), cks, fault_hook=hook)
        assert res.status is SpmvStatus.UNCORRECTABLE
        assert not res.trusted


class TestBlockDetection:
    def test_val_error_detected(self, block, xvec):
        cks = compute_checksums(block, nchecks=1)
        res = protected_spmv(
            block, xvec.copy(), cks, correct=False, fault_hook=_strike_val(0, 1.0)
        )
        assert res.status is SpmvStatus.DETECTED

    def test_input_error_detected_under_the_shift(self, block, xvec):
        """The Theorem-1 shifted input test over the block's ``n`` columns."""
        cks = compute_checksums(block, nchecks=1)

        def hook(stage, blk, xx, yy):
            if stage == "pre":
                xx[123] += 1.0

        res = protected_spmv(block, xvec.copy(), cks, correct=False, fault_hook=hook)
        assert res.status is SpmvStatus.DETECTED
        assert res.residuals.dxp_flagged
