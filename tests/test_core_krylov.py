"""Unit tests for plain BiCGstab."""

import numpy as np
import pytest

from repro.core import bicgstab, cg
from repro.sparse import CSRMatrix, stencil_spd


@pytest.fixture(scope="module")
def spd():
    return stencil_spd(400, kind="cross", radius=1)


@pytest.fixture(scope="module")
def nonsym(spd):
    """A mildly nonsymmetric, well-conditioned matrix."""
    dense = spd.to_dense().copy()
    rng = np.random.default_rng(5)
    rows = rng.integers(0, dense.shape[0], size=60)
    cols = rng.integers(0, dense.shape[0], size=60)
    dense[rows, cols] += 0.2 * rng.random(60)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1))  # diagonally dominant
    return CSRMatrix.from_dense(dense)


@pytest.fixture(scope="module")
def rhs(spd):
    return np.random.default_rng(9).normal(size=spd.nrows)


class TestBicgstab:
    def test_solves_spd(self, spd, rhs):
        res = bicgstab(spd, rhs, eps=1e-8)
        assert res.converged
        np.testing.assert_allclose(spd.matvec(res.x), rhs, atol=1e-3)

    def test_solves_nonsymmetric(self, nonsym, rhs):
        res = bicgstab(nonsym, rhs, eps=1e-10)
        assert res.converged
        np.testing.assert_allclose(nonsym.matvec(res.x), rhs, atol=1e-5)

    def test_agrees_with_cg_on_spd(self, spd, rhs):
        ours = bicgstab(spd, rhs, eps=1e-10)
        ref = cg(spd, rhs, eps=1e-10)
        np.testing.assert_allclose(ours.x, ref.x, atol=1e-4)

    def test_maxiter(self, spd, rhs):
        res = bicgstab(spd, rhs, eps=1e-14, maxiter=2)
        assert res.iterations <= 2
