"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from repro.sparse import CSRMatrix, laplacian_2d, random_spd, stencil_spd
from repro.sparse.spmv import spmv
from repro.abft import compute_checksums
from repro.backends import BaseBackend, get_backend, register_backend
from repro.backends import _FACTORIES, _INSTANCES


# Tests that leave ``max_examples`` to the profile (the clean-trajectory
# soundness test) run hypothesis' default budget in tier-1 and this one
# under ``pytest --hypothesis-profile soak`` (CI's chaos-smoke job).
settings.register_profile("soak", max_examples=1000, deadline=None)


@pytest.fixture
def cold_python():
    """Run ``python -c code`` in a fresh interpreter that can import
    ``repro`` — for what an already-warm test process cannot show
    (import order, ``sys.modules`` after a command)."""
    import repro

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])

    def run(code: str, *, cwd=None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
        )

    return run


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_lap() -> CSRMatrix:
    """400×400 5-point Laplacian (SPD, zero-free diagonal)."""
    return laplacian_2d(20)


@pytest.fixture
def small_spd() -> CSRMatrix:
    """300×300 random SPD matrix, ~12 nnz/row."""
    return random_spd(300, 0.04, seed=7)


@pytest.fixture
def stencil() -> CSRMatrix:
    """529×529 stencil SPD matrix with spread spectrum (slow CG)."""
    return stencil_spd(529, kind="cross", radius=2)


@pytest.fixture
def checks2(small_lap):
    """Two-row (detect-2/correct-1) checksums for small_lap."""
    return compute_checksums(small_lap, nchecks=2)


@pytest.fixture
def checks1(small_lap):
    """One-row (detect-1) checksums for small_lap."""
    return compute_checksums(small_lap, nchecks=1)


@pytest.fixture
def xvec(small_lap, rng) -> np.ndarray:
    """A generic input vector for small_lap."""
    return rng.normal(size=small_lap.ncols)


def dense_random_csr(rng: np.random.Generator, nrows: int, ncols: int, density: float) -> CSRMatrix:
    """Helper: random (non-symmetric) CSR matrix for structural tests."""
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.normal(size=(nrows, ncols)), 0.0)
    return CSRMatrix.from_dense(dense)


class OwnKernel(BaseBackend):
    """A registered out-of-tree kernel: it runs structure-clean products
    on its own reduction, which repeats the reference kernel's
    arithmetic exactly, and hands every other product to
    :func:`repro.sparse.spmv.spmv`."""

    name = "own-kernel"

    def __init__(self):
        self.prepared = self.owned = self.deferred = 0

    def prepare(self, a):
        self.prepared += 1

    def spmv(self, a, x, *, out=None, scratch=None):
        if not a.structure_clean:
            self.deferred += 1
            return spmv(a, x, out=out, scratch=scratch)
        self.owned += 1
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (a.ncols,):
            raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
        products = a.val * x[a.colid]  # read x before out, which may alias it
        y = np.empty(a.nrows) if out is None else out
        y[:] = 0.0
        nonempty = np.diff(a.rowidx) > 0
        if nonempty.any():
            y[nonempty] = np.add.reduceat(products, a.rowidx[:-1][nonempty])
        return y


@pytest.fixture
def own_kernel():
    """:class:`OwnKernel` registered as ``"own-kernel"``; yields the
    shared instance and unregisters it afterwards."""
    register_backend(OwnKernel.name, OwnKernel)
    yield get_backend(OwnKernel.name)
    _FACTORIES.pop(OwnKernel.name, None)
    _INSTANCES.pop(OwnKernel.name, None)

