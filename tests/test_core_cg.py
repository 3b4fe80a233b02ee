"""Unit tests for the plain CG solver (paper Algorithm 1)."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import cg
from repro.core.cg import norm2
from repro.sparse import laplacian_2d, random_spd, stencil_spd


class TestCG:
    def test_solves_laplacian(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        res = cg(small_lap, b, eps=1e-10)
        assert res.converged
        np.testing.assert_allclose(small_lap.matvec(res.x), b, atol=1e-5)

    def test_solves_from_nonzero_guess(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x0 = rng.normal(size=small_lap.nrows)
        res = cg(small_lap, b, x0=x0, eps=1e-10)
        assert res.converged

    def test_x0_not_mutated(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        x0 = rng.normal(size=small_lap.nrows)
        x0_copy = x0.copy()
        cg(small_lap, b, x0=x0)
        np.testing.assert_array_equal(x0, x0_copy)

    def test_exact_solution_zero_iterations(self, small_lap):
        x_true = np.ones(small_lap.nrows)
        b = small_lap.matvec(x_true)
        res = cg(small_lap, b, x0=x_true)
        assert res.iterations == 0
        assert res.converged

    def test_maxiter_respected(self, rng):
        a = stencil_spd(900, kind="cross", radius=1)
        b = rng.normal(size=a.nrows)
        res = cg(a, b, eps=1e-14, maxiter=3)
        assert res.iterations == 3
        assert not res.converged

    def test_threshold_formula(self, small_lap, rng):
        from repro.core.cg import cg_tolerance_threshold
        from repro.sparse import norm1

        b = rng.normal(size=small_lap.nrows)
        r0 = b.copy()
        thr = cg_tolerance_threshold(small_lap, b, r0, 1e-6)
        expect = 1e-6 * (norm1(small_lap) * np.linalg.norm(r0) + np.linalg.norm(b))
        assert thr == pytest.approx(expect)

    def test_callback_invoked_each_iteration(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        seen = []
        res = cg(small_lap, b, eps=1e-8, callback=lambda i, x, rn: seen.append((i, rn)))
        assert len(seen) == res.iterations
        assert seen[0][0] == 1
        # Residual broadly decreases (not necessarily monotonically).
        assert seen[-1][1] < seen[0][1]

    def test_iterations_scale_with_conditioning(self, rng):
        well = random_spd(400, 0.02, seed=1)  # diagonally dominant, κ small
        ill = stencil_spd(400, kind="cross", radius=1)  # PDE-like, κ ~ n
        b1 = rng.normal(size=well.nrows)
        b2 = rng.normal(size=ill.nrows)
        r_well = cg(well, b1, eps=1e-8)
        r_ill = cg(ill, b2, eps=1e-8)
        assert r_ill.iterations > 2 * r_well.iterations

    def test_non_spd_bails_out(self, rng):
        from repro.sparse import CSRMatrix

        dense = rng.normal(size=(20, 20))
        dense = dense + dense.T  # symmetric but indefinite
        a = CSRMatrix.from_dense(dense)
        b = rng.normal(size=20)
        res = cg(a, b, maxiter=200)
        # Must terminate without crashing; usually via the pq <= 0 guard.
        assert res.iterations <= 200

    def test_validation(self, small_lap):
        with pytest.raises(ValueError):
            cg(small_lap, np.ones(small_lap.nrows), eps=0.0)
        with pytest.raises(ValueError):
            cg(small_lap, np.ones(small_lap.nrows + 2))

    def test_agrees_with_scipy(self, rng):
        import scipy.sparse.linalg as spla

        a = laplacian_2d(15)
        b = rng.normal(size=a.nrows)
        ours = cg(a, b, eps=1e-12)
        ref, info = spla.cg(a.to_scipy(), b, rtol=1e-12, atol=0.0)
        assert info == 0
        np.testing.assert_allclose(ours.x, ref, atol=1e-6)


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
