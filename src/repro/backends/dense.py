"""Dense small-n fallback backend.

Materializes the CSR arrays into a dense operator on every product and
multiplies with BLAS.  O(n²) per call, so it is deliberately capped at
:attr:`DenseBackend.max_n` — its role is tests and exotic fault
scenarios, not throughput:

- it exercises solver/ABFT code against an independently-computed
  product (duplicate entries summed by scatter, row dots over the full
  dense row), catching kernel-shape assumptions the CSR kernels share;
- rebuilding the dense view *per call* means in-place ``val``
  corruption is always visible to the product, so fault studies behave
  exactly as with the sparse kernels (no stale cached operator);
- like every backend, products on matrices without the
  ``structure_clean`` stamp route through the reference kernel — a
  corrupted ``colid``/``rowidx`` must keep the reference wild-read
  emulation (a dense scatter would fault on out-of-range indices).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backends.protocol import BackendCapacityError, BaseBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix

__all__ = ["DenseBackend"]


class DenseBackend(BaseBackend):
    """Dense-materialization SpMxV for small systems."""

    name = "dense"

    #: Hard cap on the dimension (per-call O(n²) materialization).
    DEFAULT_MAX_N = 4096

    def __init__(self, max_n: int = DEFAULT_MAX_N) -> None:
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        self.max_n = int(max_n)

    def _check_capacity(self, a: "CSRMatrix") -> None:
        n = max(a.nrows, a.ncols)
        if n > self.max_n:
            raise BackendCapacityError(
                self.name,
                n=n,
                cap=self.max_n,
                hint=(
                    f"matrix is {a.nrows}x{a.ncols}; use backend "
                    "'reference' or 'scipy' for this workload"
                ),
            )

    def prepare(self, a: "CSRMatrix") -> None:
        """Fail fast before any solve work when the matrix is too big.

        The engine calls this right after backend resolution, so a
        Study sweeping an oversized ``.mtx`` workload over the dense
        backend surfaces one structured
        :class:`~repro.backends.protocol.BackendCapacityError` per task
        instead of an O(n²) materialization attempt (or crash) deep
        inside the solve.
        """
        self._check_capacity(a)

    def spmv(
        self,
        a: "CSRMatrix",
        x: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        scratch: "np.ndarray | None" = None,
    ) -> np.ndarray:
        from repro.sparse.spmv import spmv

        if not a.structure_clean:
            return spmv(a, x, out=out, scratch=scratch)
        # Defensive re-check: prepare() already failed fast for engine
        # solves; direct spmv(..., backend="dense") calls land here.
        self._check_capacity(a)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (a.ncols,):
            raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            y = a.to_dense() @ x
        if out is None:
            return y
        out[:] = y
        return out
