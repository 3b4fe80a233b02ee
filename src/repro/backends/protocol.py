"""The :class:`KernelBackend` protocol and its shared base class.

A *kernel backend* supplies the numerical primitives of a protected
solve as one swappable unit.  The solve stack dispatches
:meth:`KernelBackend.spmv` — the unreliable hot kernel, where the time
goes — on every product, and additionally routes the reliable
non-SpMxV primitives (:meth:`KernelBackend.checksum_products` at ABFT
setup, :meth:`KernelBackend.norm2` at the engine's and plugins'
residual checks) through the active backend.  The contract every
backend must honour (see ``docs/DESIGN.md`` §6 for the full
argument):

**Guarded products go to the reference kernel.**  The fault study
corrupts the raw CSR arrays in place, and the memory-safe emulation of
the resulting wild reads (index wrap-around, the monotone-segment
fallback) is part of the physics under study — its single definition
lives in :func:`repro.sparse.spmv.spmv`.  A backend's :meth:`spmv`
hands every product on a matrix *without* the
:attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp to that
function, so ABFT detection semantics never depend on the backend.

**Checksum arithmetic is reliable.**  The paper's selective-reliability
model computes ABFT metadata and residuals in reliable storage; the
default :meth:`KernelBackend.checksum_products` implementation (the
reference scatter-reduction) is the semantics every shipped backend
reproduces bit-for-bit — a backend may own the loop, but not change
the floats.  :meth:`dot`/:meth:`norm2` feed convergence
decisions, so a backend whose reductions cannot reproduce the
NumPy/BLAS summation order must inherit the base implementations.

Backends are stateless service objects: one shared instance per
registered name serves every solve in the process (see the registry
functions in :mod:`repro.backends`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix

__all__ = [
    "KernelBackend",
    "BaseBackend",
    "BackendUnavailableError",
]


class BackendUnavailableError(ValueError):
    """A registered backend cannot run in this environment.

    Raised when resolving a backend whose dependency is not installed
    (e.g. ``"scipy"`` without the ``scipy`` package).  A
    subclass of ``ValueError`` so every existing registry error path —
    ``solve()`` validation, ``Study.axis("backend", ...)``, the CLI's
    usage-error handler — reports it as a clean user-facing message
    instead of a traceback.
    """


@runtime_checkable
class KernelBackend(Protocol):
    """Swappable numerical primitives for one protected solve.

    Implementations must be safe to share across solves (no per-solve
    state) and must hand guarded products — any matrix *without* the
    ``structure_clean`` stamp — to the reference kernel (see the module
    docstring).  :meth:`spmv` is dispatched on every
    product; :meth:`checksum_products` and :meth:`norm2` are routed at
    ABFT setup and the residual checks.
    """

    #: Registry name ("reference", "scipy", ...).
    name: str

    def spmv(
        self,
        a: "CSRMatrix",
        x: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        scratch: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """``y = A x`` with the reference kernel's exact signature.

        ``out``/``scratch`` are optional preallocated buffers (see
        :func:`repro.sparse.spmv.spmv`); a backend that cannot use them
        must still honour ``out`` as the returned storage.
        """
        ...

    def checksum_products(self, a: "CSRMatrix", weights: np.ndarray) -> np.ndarray:
        """The ABFT setup product ``WᵀA`` (one row per checksum row)."""
        ...

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Dense dot product ``uᵀv``."""
        ...

    def norm2(self, v: np.ndarray) -> float:
        """Euclidean norm ``‖v‖₂``."""
        ...


class BaseBackend:
    """Shared reference implementations of the non-SpMxV primitives.

    Concrete backends inherit these so that the *reliable* arithmetic
    (checksum setup, reductions) is identical across the backend axis;
    they differentiate on :meth:`spmv`, the unreliable hot kernel.
    """

    name = "base"

    def prepare(self, a: "CSRMatrix") -> None:
        """Optional pre-solve hook (not part of the minimal protocol).

        Called once per solve by the resilience engine, after backend
        resolution and *before* the solve's wall clock starts.  The
        ``scipy`` backend binds its compiled kernel here so the one-time
        import never pollutes per-task timing.  The engine looks the
        hook up with ``getattr``, so protocol-only custom backends
        that predate it keep working.
        """

    def checksum_products(self, a: "CSRMatrix", weights: np.ndarray) -> np.ndarray:
        """``WᵀA`` via the reference scatter-reduction (reliable path)."""
        from repro.sparse.norms import column_sums

        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        return np.stack([column_sums(a, weights=w) for w in weights])

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def norm2(self, v: np.ndarray) -> float:
        return math.sqrt(float(v @ v))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
