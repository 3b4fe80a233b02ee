"""The kernel a solve runs its products on: ``reference`` or ``scipy``.

A closed choice of two names (``docs/DESIGN.md`` §6), made once per
solve:

``reference`` (the default)
    The repository's own NumPy kernel, :func:`repro.sparse.spmv.spmv`.
    Bit-identity oracle: the golden trajectories, the ABFT tolerance
    proofs and the fault-emulation semantics are all defined against
    it.

``scipy``
    SciPy's compiled CSR matvec for *structure-clean* products
    (typically 2–4× faster; the campaign ledger's ``backends.spmv_us``
    tracks it).  Naming it only checks that SciPy is installed; the
    first product binds the kernel from its extension module
    (:func:`repro.sparse._scipy.csr_matvec`), and ``scipy.sparse``
    itself is never imported.  Without SciPy the name raises
    ``ValueError`` (no silent reference fallback).

One rule routes every product, in :func:`repro.sparse.spmv.spmv_kernel`:
a product may use SciPy's kernel only when the solve names ``scipy``
*and* the matrix carries the
:attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp; every other
product — a struck live matrix, a hand-built matrix nobody certified —
goes through the wild-read kernel, whose index wrap-around is the
fault physics under study.  The reliable arithmetic of a solve
(checksums, norms) is NumPy's on either kernel, bit for bit.

Select the kernel anywhere the solve stack is entered: ``spmv(a, x,
backend="scipy")``, ``protected_spmv(..., backend=...)``,
``repro.solve(a, b, backend="scipy")``, ``Study().axis("backend",
[...])``, ``repro solve --backend scipy``.

Seeding note: the fault-stream RNG derivation deliberately does *not*
include the kernel name, so the two kernels at the same parameter point
face identical strike sequences — exactly what a kernel comparison
wants.  Task content hashes *do* include it, so result stores never
conflate them.
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.sparse.csr import CSRMatrix

__all__ = ["DEFAULT_BACKEND", "available_backends", "get_backend", "kernel_matvec"]

#: Name of the default kernel (the bit-identity oracle).
DEFAULT_BACKEND = "reference"

_NAMES = ("reference", "scipy")


class Kernel:
    """The shared object :func:`get_backend` hands out for one name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def spmv(
        self,
        a: "CSRMatrix",
        x: "np.ndarray",
        *,
        out: "np.ndarray | None" = None,
        scratch: "np.ndarray | None" = None,
    ) -> "np.ndarray":
        """``y = A x`` on this kernel: :func:`repro.sparse.spmv.spmv`
        with ``backend`` set to this name."""
        from repro.sparse.spmv import spmv

        return spmv(a, x, out=out, scratch=scratch, backend=self.name)

    def __repr__(self) -> str:
        return f"<kernel {self.name!r}>"


_SHARED = {name: Kernel(name) for name in _NAMES}


def available_backends() -> "tuple[str, ...]":
    """The two kernel names, the default first."""
    return _NAMES


def scipy_unavailable(why: object) -> ValueError:
    """The error of naming ``scipy`` where SciPy's kernel cannot load."""
    return ValueError(
        "backend 'scipy' requires the scipy package with its compiled "
        f"CSR kernel, which cannot be imported here ({why}); install it "
        "with `pip install scipy`, or use the default backend 'reference'"
    )


def get_backend(name: str) -> Kernel:
    """The shared kernel object of ``name``; ``ValueError`` for any
    other name, and for ``"scipy"`` where SciPy is not installed."""
    if not isinstance(name, str):
        raise TypeError(f"backend must be a name, got {type(name).__name__}")
    kernel = _SHARED.get(name)
    if kernel is None:
        raise ValueError(f"unknown backend {name!r}; available: {', '.join(_NAMES)}")
    if name == "scipy" and importlib.util.find_spec("scipy") is None:
        raise scipy_unavailable("No module named 'scipy'")
    return kernel


def kernel_matvec(backend: "str | Kernel | None") -> "Callable | None":
    """A kernel choice in the form a solve carries: ``None`` for
    ``reference`` (``None`` included), SciPy's bound ``csr_matvec`` for
    ``scipy``.  ``backend`` is a name or a :func:`get_backend` object."""
    name = getattr(backend, "name", backend)
    if name is None or name == "reference":
        return None
    if name != "scipy":
        get_backend(name)  # raises: neither kernel
    from repro.sparse._scipy import csr_matvec

    return csr_matvec()
