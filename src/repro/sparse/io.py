"""Matrix-Market I/O for :class:`~repro.sparse.csr.CSRMatrix`.

The UFL collection the paper uses distributes matrices in Matrix-Market
format; supporting it lets users drop in the authors' exact matrices
when they have them on disk.
"""

from __future__ import annotations

import os

from repro.sparse._scipy import import_scipy
from repro.sparse.csr import CSRMatrix

__all__ = ["save_matrix_market", "load_matrix_market"]


def save_matrix_market(a: CSRMatrix, path: str | os.PathLike) -> None:
    """Write ``a`` to ``path`` in Matrix-Market coordinate format."""
    sio = import_scipy("io", "Matrix-Market output")
    sio.mmwrite(os.fspath(path), a.to_scipy())


def load_matrix_market(path: str | os.PathLike) -> CSRMatrix:
    """Read a Matrix-Market file into a :class:`CSRMatrix`.

    Symmetric-storage files are expanded to full storage so the CSR
    arrays hold every logical nonzero (the ABFT checksums assume the
    explicit representation).
    """
    mat = import_scipy("io", "Matrix-Market input").mmread(os.fspath(path))
    return CSRMatrix.from_scipy(mat.tocsr())
