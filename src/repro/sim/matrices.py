"""The nine-matrix evaluation suite and the real-workload registry.

Table 1 of the paper lists nine SPD matrices from the UFL collection by
id, dimension and density.  The collection is unavailable offline, so
each entry is synthesized with the *same id, n and density* (and hence
the same memory size M, which drives the fault rate λ = α/M).  Several
generator families are used so the suite is not nine copies of one
spectrum; every generator yields SPD by construction.  See
``docs/DESIGN.md`` §2 for the substitution argument.

Scaling: full paper sizes (17k–75k) make 50-repetition sweeps slow on a
laptop, so :func:`get_matrix` accepts a ``scale`` divisor that shrinks
``n`` while preserving the *nonzeros per row* (so iteration cost and
checksum overhead keep their relative shape).  ``scale=1`` reproduces
the paper's dimensions exactly.

Real workloads: :func:`get_matrix` also accepts a Matrix-Market file
path or a workload *name* registered by dropping ``<name>.mtx`` (or
``.mtx.gz``) into the directory named by the ``REPRO_MATRIX_DIR``
environment variable.  When the registry holds a file named after a
paper uid (``341.mtx`` …) and the caller asks for that uid at
``scale=1`` — the paper's own dimensions — the *real* UFL matrix is
loaded instead of the synthetic stand-in, so full-scale campaigns run
the authors' actual matrices when they are present.  File-backed
matrices cannot be rescaled (``scale`` must be 1 for explicit
paths/names).  Note the environment does not enter campaign task
hashes: don't resume a synthetic-suite store with ``REPRO_MATRIX_DIR``
pointing at real matrices (or vice versa) — use separate stores.

Size facts: the Section-4 model reads a matrix only through its
dimension, its nonzeros and its word count M (:meth:`repro.core.methods
.CostModel.from_matrix`).  :func:`size_facts` gives those three in
closed form for a synthetic suite entry (``docs/DESIGN.md`` §2), so
compiling a campaign builds no matrix and imports no NumPy; file-backed
workloads are loaded to count them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix

__all__ = [
    "MatrixSpec",
    "SizeFacts",
    "size_facts",
    "PAPER_SUITE",
    "MATRIX_DIR_ENV",
    "suite_specs",
    "workload_registry",
    "matrix_source",
    "get_matrix",
    "clear_matrix_cache",
]

#: Environment variable naming the Matrix-Market workload directory.
MATRIX_DIR_ENV = "REPRO_MATRIX_DIR"

#: Recognized Matrix-Market suffixes (scipy reads ``.gz`` transparently).
_MM_SUFFIXES = (".mtx", ".mtx.gz")


class SizeFacts(NamedTuple):
    """What the Section-4 model reads of a matrix, under the attribute
    names :class:`repro.sparse.csr.CSRMatrix` gives them."""

    nrows: int
    nnz: int
    memory_words: int  #: M = 2·nnz + nrows + 1 (values, column ids, row pointers)


@dataclass(frozen=True)
class MatrixSpec:
    """One row of the paper's matrix table.

    The UFL matrices of Table 1 are predominantly elliptic-PDE
    discretizations, so each suite entry is synthesized as a 2-D
    wide-stencil diffusion operator (:func:`repro.sparse.generators
    .stencil_spd`) whose stencil shape/radius matches the paper's
    nonzeros-per-row and whose anisotropy varies across entries to
    diversify the spectra.  This family has the continuously spread
    spectrum of real PDE matrices — CG takes O(grid side) iterations —
    unlike diagonally dominant random matrices, which CG solves in a
    handful of steps and which would make interval optimization moot.

    Attributes
    ----------
    uid:
        UFL collection id quoted by the paper (used as label only).
    n:
        Dimension at paper scale.
    density:
        nnz / n² at paper scale.
    kind / radius / anisotropy:
        Stencil parameters chosen so nnz/row ≈ ``density · n``
        (box: (2r+1)² per row, cross: 4r+1 per row).
    """

    uid: int
    n: int
    density: float
    kind: str = "cross"
    radius: int = 1
    anisotropy: float = 1.0

    @property
    def nnz_per_row(self) -> float:
        """Average nonzeros per row (preserved under scaling)."""
        return self.density * self.n

    def scaled_n(self, scale: int) -> int:
        """Dimension after applying a scale divisor (min 512)."""
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        return max(512, self.n // scale)

    def size_facts(self, scale: int = 1) -> SizeFacts:
        """``instantiate(scale)``'s size, counted without building it.

        The stencil lives on a ``side × side`` grid with ``side =
        max(2, round(√scaled_n))``, and stencil offset ``(dx, dy)``
        couples the ``(side − |dx|)·(side − |dy|)`` grid points whose
        neighbour at that offset is inside the grid (the centre is the
        diagonal), so ``nnz`` is the sum of those counts.
        """
        side = max(2, int(round(self.scaled_n(scale) ** 0.5)))
        reach = range(-self.radius, self.radius + 1)
        nnz = sum(
            max(0, side - abs(dx)) * max(0, side - abs(dy))
            for dx in reach
            for dy in reach
            if self.kind == "box" or dx == 0 or dy == 0
        )
        nrows = side * side
        return SizeFacts(nrows, nnz, 2 * nnz + nrows + 1)

    def instantiate(self, scale: int = 1) -> CSRMatrix:
        """Build the matrix at the given scale (deterministic per uid)."""
        from repro.sparse.generators import stencil_spd

        return stencil_spd(
            self.scaled_n(scale),
            kind=self.kind,
            radius=self.radius,
            anisotropy=self.anisotropy,
        )


#: The paper's Table-1 suite: ids, dimensions and densities verbatim;
#: stencil parameters chosen to match each entry's nnz/row.
PAPER_SUITE: tuple[MatrixSpec, ...] = (
    MatrixSpec(uid=341, n=23052, density=2.15e-3, kind="box", radius=3),  # ≈50/row
    MatrixSpec(uid=752, n=74752, density=1.07e-4, kind="box", radius=1),  # ≈8/row
    MatrixSpec(uid=924, n=60000, density=2.11e-4, kind="cross", radius=3),  # ≈13/row
    MatrixSpec(uid=1288, n=30401, density=5.10e-4, kind="cross", radius=4, anisotropy=2.0),
    MatrixSpec(uid=1289, n=36441, density=4.26e-4, kind="cross", radius=4),  # ≈16/row
    MatrixSpec(uid=1311, n=48962, density=2.14e-4, kind="cross", radius=2),  # ≈10/row
    MatrixSpec(uid=1312, n=40000, density=1.24e-4, kind="cross", radius=1),  # 5-point
    MatrixSpec(uid=1848, n=65025, density=2.44e-4, kind="cross", radius=4, anisotropy=0.5),
    MatrixSpec(uid=2213, n=20000, density=1.39e-3, kind="box", radius=2),  # ≈25/row
)


def suite_specs(uids: "list[int] | None" = None) -> tuple[MatrixSpec, ...]:
    """The suite, optionally filtered to the given paper ids."""
    if uids is None:
        return PAPER_SUITE
    by_id = {s.uid: s for s in PAPER_SUITE}
    missing = [u for u in uids if u not in by_id]
    if missing:
        raise KeyError(f"unknown matrix ids: {missing}; known: {sorted(by_id)}")
    return tuple(by_id[u] for u in uids)


def workload_registry() -> "dict[str, Path]":
    """The Matrix-Market files registered via ``REPRO_MATRIX_DIR``.

    Maps workload name (file stem, without the ``.mtx``/``.mtx.gz``
    suffix) to its path.  Empty when the variable is unset, the
    directory is missing, or it holds no Matrix-Market files.  Scanned
    on every call (cheap — one ``listdir``) so tests and long-lived
    processes see environment changes without a cache reset.
    """
    root = os.environ.get(MATRIX_DIR_ENV)
    if not root:
        return {}
    root = Path(root)
    if not root.is_dir():
        return {}
    out: "dict[str, Path]" = {}
    for suffix in _MM_SUFFIXES:  # .mtx wins over .mtx.gz on a name clash
        for path in sorted(root.glob(f"*{suffix}")):
            out.setdefault(path.name[: -len(suffix)], path)
    return out


def _resolve_workload(key: str) -> Path:
    """Resolve an explicit path or a registered workload name."""
    direct = Path(key)
    if direct.suffix and direct.is_file():
        return direct
    registry = workload_registry()
    if key in registry:
        return registry[key]
    known = sorted(registry)
    raise KeyError(
        f"unknown workload {key!r}: not a Matrix-Market file path and not a "
        f"name registered under ${MATRIX_DIR_ENV} "
        f"(registered: {known if known else 'none'})"
    )


@lru_cache(maxsize=None)
def _load_workload(path: str) -> CSRMatrix:
    """Load (and cache) one Matrix-Market file by resolved path."""
    from repro.sparse.io import load_matrix_market

    return load_matrix_market(path)


@lru_cache(maxsize=None)
def _synthesize(uid: int, scale: int) -> CSRMatrix:
    """Instantiate (and cache) one synthetic suite matrix."""
    (spec,) = suite_specs([uid])
    return spec.instantiate(scale)


def get_matrix(uid: "int | str | os.PathLike", scale: int = 1) -> CSRMatrix:
    """Resolve (and cache) an evaluation matrix.

    ``uid`` may be

    - a paper id (int): the synthetic suite entry — unless ``scale`` is
      1 *and* ``REPRO_MATRIX_DIR`` registers a file named after the id,
      in which case the real UFL matrix is loaded instead;
    - a path to a Matrix-Market file (``.mtx`` / ``.mtx.gz``);
    - a workload name registered under ``REPRO_MATRIX_DIR``.

    Both caches are unbounded on purpose: a wide Study sweep touches up
    to 9 uids × several scales interleaved, and an evicting LRU could
    drop entries mid-campaign — silently re-paying matrix synthesis
    *and* forcing the worker's workspace, which is bound to one matrix
    object, to rebind and rebuild its checksums.  The working set is
    small (a paper-scale matrix is a few MB); a long-lived process that
    wants the memory back calls :func:`clear_matrix_cache` (or
    :func:`repro.perf.clear_caches`) at a quiescent point.  File-backed
    entries are keyed by path, not content — after rewriting a file in
    place, clear the cache.
    """
    if isinstance(uid, (str, os.PathLike)):
        if scale != 1:
            raise ValueError(
                f"file-backed workloads cannot be rescaled: scale must be 1, got {scale}"
            )
        return _load_workload(str(_resolve_workload(os.fspath(uid))))
    if scale == 1:
        registry = workload_registry()
        real = registry.get(str(uid))
        if real is not None:
            return _load_workload(str(real))
    return _synthesize(uid, scale)


def size_facts(uid: "int | str | os.PathLike", scale: int = 1) -> SizeFacts:
    """``(nrows, nnz, memory_words)`` of ``get_matrix(uid, scale)``.

    A synthetic suite entry is counted in closed form
    (:meth:`MatrixSpec.size_facts`) and nothing is built; a
    Matrix-Market path, a registered workload name, or a paper id that
    ``REPRO_MATRIX_DIR`` registers at ``scale=1`` is loaded through
    :func:`get_matrix` (and cached there) to count it.
    """
    if not isinstance(uid, (str, os.PathLike)) and matrix_source(uid, scale) == "synthetic":
        (spec,) = suite_specs([uid])
        return spec.size_facts(scale)
    a = get_matrix(uid, scale)
    return SizeFacts(a.nrows, a.nnz, a.memory_words)


def matrix_source(uid: "int | str | os.PathLike", scale: int = 1) -> str:
    """Where :func:`get_matrix` would read this matrix from.

    Returns ``"synthetic"`` for a generated suite entry, else the
    resolved file path.  Campaign records carry this as provenance:
    task hashes deliberately ignore the environment, so the record is
    where a reader can tell a synthetic-suite result from a
    real-matrix one (and spot a store that mixed the two).
    """
    if isinstance(uid, (str, os.PathLike)):
        return str(_resolve_workload(os.fspath(uid)))
    if scale == 1:
        real = workload_registry().get(str(uid))
        if real is not None:
            return str(real)
    return "synthetic"


def clear_matrix_cache() -> None:
    """Explicitly drop every cached matrix (synthetic and file-backed).

    Also invalidates (by garbage collection) the per-matrix checksum
    cache entries keyed on the dropped instances.  It does not free a
    matrix a workspace is still bound to — the default workspace keeps
    the last task's matrix alive.  To bound memory between tasks of a
    huge sweep call :func:`repro.perf.clear_caches`, which also releases
    that binding.
    """
    _synthesize.cache_clear()
    _load_workload.cache_clear()
