"""The reference backend: today's NumPy kernels, the bit-identity oracle.

This backend *is* the default physics: every golden trajectory, every
ABFT proof and every fault-emulation path in the repository is defined
in terms of :func:`repro.sparse.spmv.spmv`.  The registry treats it
specially — :func:`repro.backends.resolve_backend` resolves it to
``None`` so the hot paths keep calling the raw kernel with zero
dispatch overhead, which is what keeps ``backend="reference"``
(explicit or default) bit-identical to the pre-backend code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.protocol import BaseBackend

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.sparse.csr import CSRMatrix

__all__ = ["ReferenceBackend"]


class ReferenceBackend(BaseBackend):
    """The repository's own vectorized CSR kernels (the default)."""

    name = "reference"

    def spmv(
        self,
        a: "CSRMatrix",
        x: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        scratch: "np.ndarray | None" = None,
    ) -> np.ndarray:
        from repro.sparse.spmv import spmv

        # No ``backend=`` forwarding: this *is* the terminal kernel.
        return spmv(a, x, out=out, scratch=scratch)
