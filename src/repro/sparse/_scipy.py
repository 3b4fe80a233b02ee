"""On-demand SciPy import with a readable failure.

SciPy is an interop dependency — Matrix-Market I/O, the generators
other than :func:`~repro.sparse.generators.stencil_spd`, the scipy
bridge on :class:`~repro.sparse.csr.CSRMatrix`, the ``scipy`` kernel
backend — and costs ~0.25 s and ~25 MiB to import, so nothing imports
it at module level.  The I/O functions and generators, which a user
can reach without ever having handed us a SciPy object, go through
:func:`import_scipy`, which turns a missing install into one clear
line instead of a bare ``No module named``.
"""

from __future__ import annotations

import importlib
from types import ModuleType

__all__ = ["import_scipy"]


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
