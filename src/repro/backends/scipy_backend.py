"""SciPy-accelerated SpMxV backend.

Delegates *structure-clean* products to SciPy's compiled CSR matvec
(``scipy.sparse._sparsetools.csr_matvec``, the kernel behind
``csr_matrix @ x``) called directly on the raw CSR arrays — no sparse
object is built, so the backend sees exactly the bytes the fault
injector mutates, including in-place ``val`` corruption (a ``val``
strike leaves the structure stamp armed, and the corrupted product is
the ABFT layer's to catch, same as under the reference kernel).

Everything *guarded* — any matrix without the
:attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp, i.e. a
possibly index-corrupted live matrix or a hand-built matrix nobody
certified — routes back through the reference kernel, whose index
wrap-around and monotone-segment fallback are part of the fault
physics under study.  That split preserves ABFT detection semantics:
detection never depends on which backend computed a clean-structure
product, because the Theorem-2 thresholds bound kernel rounding at a
scale (~n·u·‖A‖·‖x‖) orders of magnitude above the few-ULP
summation-order difference between the two kernels.

The compiled kernel is *numerically equivalent but not bit-identical*
to the reference reduction (different summation order).  Fault-free
convergence histories on the paper suite are identical in iteration
count and agree to rounding in every residual (locked by
``tests/test_backends.py``); anything that must be bit-reproducible —
the golden trajectories, resumable campaign stores mixing runs —
should stay on ``backend="reference"``.

There is no degraded mode: when SciPy is not installed, constructing
the backend raises
:class:`~repro.backends.protocol.BackendUnavailableError` — results
are never computed by the reference kernel under the ``scipy`` label.
Construction only *looks* for the package (``importlib.util
.find_spec``): naming the backend in a spec, a ``--dry-run`` or a
do-nothing ``--resume`` never imports ``scipy.sparse``.  The compiled
kernel is bound by the first :meth:`ScipyBackend.prepare` or product —
in the process that actually runs one — and even there the package is
not imported: :func:`_sparsetools` loads the one extension module file
that holds ``csr_matvec`` (≈ 1 ms) instead of running
``scipy/sparse/__init__.py`` (≈ 0.2–0.4 s and ≈ 14.5 MiB), and leaves
``sys.modules`` as it found it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import TYPE_CHECKING

from repro.backends.protocol import BackendUnavailableError, BaseBackend

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.sparse.csr import CSRMatrix

__all__ = ["ScipyBackend"]


def _unavailable(why: object) -> BackendUnavailableError:
    return BackendUnavailableError(
        "backend 'scipy' requires the scipy package with its compiled "
        f"CSR kernel, which cannot be imported here ({why}); install it "
        "with `pip install scipy`, or use the default backend 'reference'"
    )


_SPARSETOOLS = "scipy.sparse._sparsetools"


def _sparsetools() -> ModuleType:
    """SciPy's compiled sparse kernels, without importing ``scipy.sparse``.

    A process that already has ``scipy.sparse`` gets its module.
    Otherwise the extension file is loaded straight from the installed
    package directory (``find_spec`` runs no SciPy code) under its
    canonical name, and the entry the load registers in ``sys.modules``
    is dropped again: left behind without its parent, it would make a
    later ``import scipy.sparse`` bind no ``_sparsetools`` attribute.
    With the entry gone that import works as usual and exposes the same
    compiled functions.  Layouts without the file fall back to the
    package import.
    """
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None:
        return sparse._sparsetools
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec else []
    files = [
        os.path.join(root, "sparse", "_sparsetools" + suffix)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        for root in roots
    ]
    path = next((f for f in files if os.path.isfile(f)), None)
    if path is not None and _SPARSETOOLS not in sys.modules:
        loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_SPARSETOOLS, path, loader=loader)
            )
            loader.exec_module(module)
            return module
        except ImportError:
            pass  # e.g. a build this interpreter cannot load: use the package
        finally:
            sys.modules.pop(_SPARSETOOLS, None)
    from scipy.sparse import _sparsetools

    return _sparsetools


class ScipyBackend(BaseBackend):
    """SciPy compiled CSR matvec for structure-clean products."""

    name = "scipy"

    def __init__(self) -> None:
        if importlib.util.find_spec("scipy") is None:
            raise _unavailable("No module named 'scipy'")
        self._csr_matvec = None  # bound by the first prepare()/spmv()

    def prepare(self, a: "CSRMatrix") -> None:
        """Bind the compiled CSR matvec (private but stable since scipy
        0.19) before the solve's wall clock starts.  Only its extension
        module is loaded (:func:`_sparsetools`), not ``scipy.sparse``."""
        if self._csr_matvec is None:
            try:
                self._csr_matvec = _sparsetools().csr_matvec
            except (ImportError, AttributeError) as exc:
                raise _unavailable(exc) from exc

    def spmv(
        self,
        a: "CSRMatrix",
        x: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        scratch: "np.ndarray | None" = None,
    ) -> np.ndarray:
        if not a.structure_clean:
            # Guarded path: uncertified (possibly corrupted) index
            # arrays keep the reference kernel's wild-read emulation.
            from repro.sparse.spmv import spmv

            return spmv(a, x, out=out, scratch=scratch)
        # Imported here, not at module level: naming the backend (a
        # campaign's compile step) must not load NumPy.  A repeat import
        # is a sys.modules hit.
        import numpy as np

        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (a.ncols,):
            raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
        if out is None:
            y = np.zeros(a.nrows, dtype=np.float64)
        else:
            # The compiled kernel does no bounds checking — a short
            # buffer would be an out-of-bounds write, so validate where
            # the reference kernel's reduceat would have raised.
            if out.shape != (a.nrows,):
                raise ValueError(f"out must have shape ({a.nrows},), got {out.shape}")
            if np.may_share_memory(out, x):
                x = x.copy()  # zeroing y below must not clear the input
            y = out
            y[:] = 0.0  # csr_matvec accumulates into y
        if a.nnz:
            if self._csr_matvec is None:
                self.prepare(a)
            # Corrupted values can overflow to ±inf inside the compiled
            # kernel; as with the reference kernel, the non-finite
            # result is the silent error propagating for ABFT to flag.
            self._csr_matvec(a.nrows, a.ncols, a.rowidx, a.colid, a.val, x, y)
        return y
