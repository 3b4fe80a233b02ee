"""Sparse-matrix substrate: raw-array CSR storage, SpMxV kernels, generators.

The paper's ABFT scheme (Algorithm 2) operates directly on the three CSR
arrays ``Val``, ``Colid`` and ``Rowidx`` — both the checksums and the
fault injector need byte-level access to them — so this package provides
its own CSR container rather than hiding behind :mod:`scipy.sparse`.
A scipy bridge is included for interop and for cross-checking kernels.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# ``spmv`` is both a submodule and an exported function: importing the
# submodule rebinds the package attribute to the module, so the function
# is bound eagerly, after that import (docs/DESIGN.md §1).
from repro.sparse.spmv import spmv, spmv_reference

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.norms import norm1, norm_inf, column_sums, row_sums
    from repro.sparse.validate import validate_structure, StructureError
    from repro.sparse.generators import (
        laplacian_2d,
        laplacian_3d,
        anisotropic_2d,
        banded_spd,
        random_spd,
        graph_laplacian_spd,
        stencil_spd,
        diagonally_dominant_spd,
    )
    from repro.sparse.io import save_matrix_market, load_matrix_market

__all__ = [
    "CSRMatrix",
    "spmv",
    "spmv_reference",
    "norm1",
    "norm_inf",
    "column_sums",
    "row_sums",
    "validate_structure",
    "StructureError",
    "laplacian_2d",
    "laplacian_3d",
    "anisotropic_2d",
    "banded_spd",
    "random_spd",
    "graph_laplacian_spd",
    "stencil_spd",
    "diagonally_dominant_spd",
    "save_matrix_market",
    "load_matrix_market",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sparse.csr": ("CSRMatrix",),
        "repro.sparse.norms": ("norm1", "norm_inf", "column_sums", "row_sums"),
        "repro.sparse.validate": ("validate_structure", "StructureError"),
        "repro.sparse.generators": (
            "laplacian_2d",
            "laplacian_3d",
            "anisotropic_2d",
            "banded_spd",
            "random_spd",
            "graph_laplacian_spd",
            "stencil_spd",
            "diagonally_dominant_spd",
        ),
        "repro.sparse.io": ("save_matrix_market", "load_matrix_market"),
    },
)
