"""On-demand SciPy: a readable import failure, and the compiled kernel.

SciPy is an interop dependency — Matrix-Market I/O, the generators
other than :func:`~repro.sparse.generators.stencil_spd`, the scipy
bridge on :class:`~repro.sparse.csr.CSRMatrix`, the ``scipy`` kernel.
The I/O helpers and generators import ``scipy.sparse``, which costs
~0.25 s and ~25 MiB, so nothing imports it at module level.  The I/O
functions and generators, which a user can reach without ever having
handed us a SciPy object, go through :func:`import_scipy`, which turns
a missing install into one clear line instead of a bare ``No module
named``.  The ``scipy`` kernel goes through :func:`csr_matvec`, which
loads the one extension module that holds SciPy's CSR matvec and never
runs ``scipy/sparse/__init__.py``.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Callable

__all__ = ["import_scipy", "csr_matvec"]


def import_scipy(submodule: str, needed_for: str) -> ModuleType:
    """Import ``scipy.<submodule>`` or raise an ``ImportError`` saying
    what needed it and how to get it."""
    try:
        return importlib.import_module(f"scipy.{submodule}")
    except ImportError as exc:
        raise ImportError(
            f"{needed_for} needs the scipy package, which cannot be "
            f"imported here ({exc}); install it with `pip install scipy`"
        ) from exc


_SPARSETOOLS = "scipy.sparse._sparsetools"

#: SciPy's ``csr_matvec``, once :func:`csr_matvec` has bound it.
_csr_matvec: "Callable | None" = None


def csr_matvec() -> Callable:
    """SciPy's compiled CSR matvec (private but stable since SciPy
    0.19), bound on the first call in a process.

    It is the kernel behind ``csr_matrix @ x``, called on the raw CSR
    arrays, so it reads exactly the bytes the fault injector mutates.
    Binding loads only its extension module (:func:`_sparsetools`,
    ≈ 1 ms) instead of the ``scipy.sparse`` package (≈ 0.2–0.4 s and
    ≈ 14.5 MiB).  A SciPy that cannot give it raises the ``ValueError``
    of :func:`repro.backends.get_backend` for an unavailable ``scipy``.
    """
    global _csr_matvec
    if _csr_matvec is None:
        try:
            _csr_matvec = _sparsetools().csr_matvec
        except (ImportError, AttributeError) as exc:
            from repro.backends import scipy_unavailable

            raise scipy_unavailable(exc) from exc
    return _csr_matvec


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
