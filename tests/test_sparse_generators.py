"""Unit tests for the SPD matrix generators."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.sparse import (
    anisotropic_2d,
    banded_spd,
    graph_laplacian_spd,
    laplacian_2d,
    laplacian_3d,
    random_spd,
    stencil_spd,
)
from repro.sim.matrices import PAPER_SUITE, suite_specs
from repro.sparse import CSRMatrix
from repro.sparse.generators import diagonally_dominant_spd
from repro.sparse.validate import is_structurally_valid


def _is_spd(a, k: int = 3) -> bool:
    """Check SPD via the smallest eigenvalues (sparse Lanczos)."""
    s = a.to_scipy()
    if s.shape[0] <= 50:
        vals = np.linalg.eigvalsh(s.toarray())
        return bool(vals.min() > 0)
    vals = spla.eigsh(s, k=k, which="SA", return_eigenvectors=False, maxiter=5000)
    return bool(vals.min() > 0)


def _is_symmetric(a) -> bool:
    s = a.to_scipy()
    return bool(abs(s - s.T).max() == 0)


class TestLaplacians:
    def test_laplacian_2d_shape_and_spd(self):
        a = laplacian_2d(12)
        assert a.shape == (144, 144)
        assert _is_symmetric(a)
        assert _is_spd(a)

    def test_laplacian_2d_rectangular_grid(self):
        a = laplacian_2d(6, 9)
        assert a.shape == (54, 54)

    def test_laplacian_3d(self):
        a = laplacian_3d(5)
        assert a.shape == (125, 125)
        assert _is_symmetric(a)
        assert _is_spd(a)

    def test_anisotropic_spd(self):
        a = anisotropic_2d(10, eps=0.1)
        assert _is_spd(a)

    def test_anisotropic_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            anisotropic_2d(10, eps=0.0)


class TestRandomFamilies:
    def test_random_spd_is_spd(self):
        a = random_spd(200, 0.05, seed=1)
        assert _is_symmetric(a)
        assert _is_spd(a)

    def test_random_spd_density_close(self):
        a = random_spd(400, 0.03, seed=2)
        assert a.density == pytest.approx(0.03, rel=0.35)

    def test_random_spd_deterministic(self):
        assert random_spd(100, 0.1, seed=5).equals(random_spd(100, 0.1, seed=5))

    def test_random_spd_seed_changes_matrix(self):
        assert not random_spd(100, 0.1, seed=5).equals(random_spd(100, 0.1, seed=6))

    def test_random_spd_rejects_bad_density(self):
        with pytest.raises(ValueError, match="density"):
            random_spd(10, 0.0)

    def test_banded_spd(self):
        a = banded_spd(150, 4, seed=0)
        assert _is_symmetric(a)
        assert _is_spd(a)
        # Bandwidth respected.
        assert np.all(np.abs(a.colid - np.repeat(np.arange(150), a.row_nnz())) <= 4)

    def test_banded_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            banded_spd(10, 10)

    def test_diagonally_dominant(self):
        a = diagonally_dominant_spd(150, nnz_per_row=6, seed=3)
        assert _is_spd(a)


class TestGraphLaplacian:
    def test_small_uses_networkx_and_is_spd(self):
        a = graph_laplacian_spd(100, avg_degree=4, seed=0)
        assert _is_symmetric(a)
        assert _is_spd(a)

    def test_large_path_is_spd(self):
        a = graph_laplacian_spd(2500, avg_degree=6, seed=0)
        assert _is_symmetric(a)
        assert _is_spd(a)

    def test_unshifted_columns_sum_to_shift(self):
        # Laplacian columns sum to zero, so the shifted matrix's columns
        # sum exactly to the shift — the paper's zero-checksum case.
        a = graph_laplacian_spd(80, avg_degree=4, seed=1, shift=2.5)
        from repro.sparse import column_sums

        np.testing.assert_allclose(column_sums(a), 2.5)


class TestStencil:
    @pytest.mark.parametrize("kind,radius,expect", [("cross", 1, 5), ("cross", 3, 13), ("box", 1, 9), ("box", 2, 25)])
    def test_interior_row_nnz(self, kind, radius, expect):
        a = stencil_spd(400, kind=kind, radius=radius)
        assert a.row_nnz().max() == expect

    def test_spd_and_symmetric(self):
        a = stencil_spd(400, kind="box", radius=2)
        assert _is_symmetric(a)
        assert _is_spd(a)

    def test_row_sums_equal_shift(self):
        a = stencil_spd(300, kind="cross", radius=2, shift=0.125)
        from repro.sparse import row_sums

        np.testing.assert_allclose(row_sums(a), 0.125, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="radius"):
            stencil_spd(100, radius=0)
        with pytest.raises(ValueError, match="kind"):
            stencil_spd(100, kind="hex")
        with pytest.raises(ValueError, match="shift"):
            stencil_spd(100, shift=0.0)

    def test_anisotropy_changes_values_not_pattern(self):
        a = stencil_spd(400, kind="cross", radius=2, anisotropy=1.0)
        b = stencil_spd(400, kind="cross", radius=2, anisotropy=2.0)
        np.testing.assert_array_equal(a.colid, b.colid)
        assert not np.allclose(a.val, b.val)

    def test_all_generators_structurally_valid(self):
        for a in (
            laplacian_2d(8),
            laplacian_3d(4),
            random_spd(100, 0.05, seed=0),
            graph_laplacian_spd(100, 4, seed=0),
            stencil_spd(100),
            banded_spd(100, 3),
        ):
            assert is_structurally_valid(a)


def _stencil_spd_scipy(n_target, *, kind="box", radius=1, shift=1e-3, anisotropy=1.0):
    """The SciPy COO→CSR assembly ``stencil_spd`` used until it was
    rebuilt directly in CSR — kept here, verbatim, as the oracle: every
    committed golden trajectory, store digest and benchmark number was
    produced on matrices built this way, so the generator must keep
    returning the same bytes."""
    import scipy.sparse as sp

    side = max(2, int(round(n_target**0.5)))
    n = side * side
    offsets = []
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            if kind == "cross" and dx != 0 and dy != 0:
                continue
            dist2 = dx * dx + (dy * anisotropy) ** 2
            offsets.append((dx, dy, -1.0 / dist2))
    ii, jj, vv = [], [], []
    gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    idx = gx * side + gy
    for dx, dy, w in offsets:
        ok = (gx + dx >= 0) & (gx + dx < side) & (gy + dy >= 0) & (gy + dy < side)
        src = idx[ok]
        ii.append(src)
        jj.append((gx[ok] + dx) * side + (gy[ok] + dy))
        vv.append(np.full(src.size, w))
    rows, cols, vals = np.concatenate(ii), np.concatenate(jj), np.concatenate(vv)
    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel() + shift
    return CSRMatrix.from_scipy(off + sp.diags(diag))


def _assert_same_bytes(a, b):
    assert a.shape == b.shape
    for name in ("val", "colid", "rowidx"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestStencilByteIdentity:
    """``stencil_spd`` (NumPy, straight to CSR) against the SciPy oracle."""

    @pytest.mark.parametrize(
        "uid,scale",
        [(s.uid, scale) for s in PAPER_SUITE for scale in (8, 32, 128)]
        + [(2213, 1), (1312, 1)],
    )
    def test_paper_suite(self, uid, scale):
        (spec,) = suite_specs([uid])
        kwargs = dict(kind=spec.kind, radius=spec.radius, anisotropy=spec.anisotropy)
        _assert_same_bytes(
            spec.instantiate(scale), _stencil_spd_scipy(spec.scaled_n(scale), **kwargs)
        )

    @pytest.mark.parametrize(
        "n_target,kwargs",
        [
            (1, dict(kind="box", radius=1)),  # clamps to the 2×2 grid
            (4, dict(kind="cross", radius=1)),
            (4, dict(kind="box", radius=5)),  # radius >= side
            (9, dict(kind="cross", radius=7, anisotropy=3.0)),
            (16, dict(kind="box", radius=4, shift=0.5)),
            (30, dict(kind="box", radius=2, anisotropy=0.3)),
        ],
    )
    def test_edge_grids(self, n_target, kwargs):
        _assert_same_bytes(
            stencil_spd(n_target, **kwargs), _stencil_spd_scipy(n_target, **kwargs)
        )

    @pytest.mark.parametrize("kind", ["box", "cross"])
    def test_every_row_has_an_off_diagonal_neighbour(self, kind):
        """The diagonal's ``np.add.reduceat`` has no empty segment to
        mishandle: the grid is at least 2×2, so even a corner couples
        to something."""
        a = stencil_spd(1, kind=kind, radius=1)
        assert a.shape == (4, 4) and a.row_nnz().min() >= 2
