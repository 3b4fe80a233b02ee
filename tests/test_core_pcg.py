"""Unit tests for preconditioned CG."""

import numpy as np
import pytest

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro import cg, pcg
from repro.core import jacobi_preconditioner, ssor_preconditioner
from repro.sim.engine import make_rhs
from repro.sim.matrices import get_matrix
from repro.sparse import CSRMatrix, stencil_spd


@pytest.fixture
def ill(rng):
    """Diagonally scaled stencil — Jacobi helps a lot here."""
    a = stencil_spd(400, kind="cross", radius=1)
    scale = np.exp(rng.uniform(-2, 2, size=a.nrows))
    dense = a.to_dense() * scale[:, None] * scale[None, :]
    return CSRMatrix.from_dense(dense)


class TestJacobi:
    def test_preconditioner_applies_inverse_diagonal(self, small_lap, rng):
        m = jacobi_preconditioner(small_lap)
        z = rng.normal(size=small_lap.nrows)
        np.testing.assert_allclose(m(z), z / small_lap.diagonal())

    def test_rejects_zero_diagonal(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            jacobi_preconditioner(a)

    def test_pcg_converges_faster_on_scaled_problem(self, ill, rng):
        b = rng.normal(size=ill.nrows)
        plain = pcg(ill, b, eps=1e-8)
        jac = pcg(ill, b, preconditioner=jacobi_preconditioner(ill), eps=1e-8)
        assert jac.converged
        assert jac.iterations < plain.iterations

    def test_pcg_solution_correct(self, ill, rng):
        x_true = rng.normal(size=ill.nrows)
        b = ill.matvec(x_true)
        res = pcg(ill, b, preconditioner=jacobi_preconditioner(ill), eps=1e-10)
        np.testing.assert_allclose(ill.matvec(res.x), b, rtol=1e-5, atol=1e-5)


class TestSSOR:
    def test_ssor_converges(self, rng):
        a = stencil_spd(225, kind="cross", radius=1)
        b = rng.normal(size=a.nrows)
        res = pcg(a, b, preconditioner=ssor_preconditioner(a), eps=1e-8)
        assert res.converged
        plain = pcg(a, b, eps=1e-8)
        assert res.iterations < plain.iterations

    def test_ssor_rejects_bad_omega(self, small_lap):
        with pytest.raises(ValueError, match="omega"):
            ssor_preconditioner(small_lap, omega=2.0)


class TestPcgPlain:
    def test_no_preconditioner_matches_cg(self, small_lap, rng):
        b = rng.normal(size=small_lap.nrows)
        a_res = cg(small_lap, b, eps=1e-10)
        p_res = pcg(small_lap, b, eps=1e-10)
        np.testing.assert_allclose(a_res.x, p_res.x, atol=1e-6)

    def test_custom_matvec_hook(self, small_lap, rng):
        """The matvec override lets the ABFT-protected product drive PCG."""
        from repro.abft import compute_checksums, protected_spmv

        cks = compute_checksums(small_lap, nchecks=2)
        calls = []

        def protected(v):
            res = protected_spmv(small_lap, v.copy(), cks)
            calls.append(res.status)
            return res.y

        b = rng.normal(size=small_lap.nrows)
        res = pcg(small_lap, b, matvec=protected, eps=1e-8)
        assert res.converged
        assert len(calls) == res.iterations + 1  # +1 for the initial residual

    @pytest.mark.parametrize("struck", [False, True], ids=["clean", "struck"])
    def test_protected_jacobi_pcg_on_suite_matrix(self, struck):
        """Jacobi-PCG through the ABFT-protected product (suite #1288):
        clean products reproduce the plain solve; one corrupted ``val``
        word is corrected in place and the solve still converges."""
        a = get_matrix(1288, 32).copy()
        b = make_rhs(a)
        m = jacobi_preconditioner(a)
        cks = compute_checksums(a, nchecks=2)
        plain = pcg(a, b, preconditioner=m, eps=1e-8)
        pending = [struck]
        statuses = []

        def strike(stage, aa, xx, yy):
            if stage == "pre" and pending[0]:
                aa.val[7] += 5.0
                pending[0] = False

        def protected(v):
            res = protected_spmv(a, v.copy(), cks, fault_hook=strike)
            assert res.trusted
            statuses.append(res.status)
            return res.y

        res = pcg(a, b, preconditioner=m, matvec=protected, eps=1e-8)
        assert res.converged
        if not struck:
            assert res.iterations == plain.iterations
            np.testing.assert_allclose(res.x, plain.x, rtol=1e-10)
            assert all(s is SpmvStatus.OK for s in statuses)
