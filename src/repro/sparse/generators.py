"""Synthetic SPD matrix generators.

The paper evaluates on nine SPD matrices from the UFL collection
(n between 17456 and 74752, density below 1e-2).  The collection is not
available offline, so these generators synthesize SPD matrices with
prescribed dimension and density; :mod:`repro.sim.matrices` registers a
nine-matrix suite whose ids, sizes and densities match the paper's
Table 1.  See ``docs/DESIGN.md`` §2 for why this substitution is
faithful: the experiments depend only on n, nnz (→ memory size M →
fault rate λ), SPD-ness (CG convergence) and sparsity (SpMxV cost).
"""

from __future__ import annotations

import numpy as np

from repro.sparse._scipy import import_scipy
from repro.sparse.csr import CSRMatrix
from repro.util.rng import as_generator

__all__ = [
    "laplacian_2d",
    "laplacian_3d",
    "anisotropic_2d",
    "banded_spd",
    "random_spd",
    "graph_laplacian_spd",
    "stencil_spd",
    "diagonally_dominant_spd",
]


def laplacian_2d(nx: int, ny: int | None = None) -> CSRMatrix:
    """Standard 5-point Laplacian on an ``nx × ny`` grid (SPD, n = nx·ny)."""
    sp = import_scipy("sparse", "laplacian_2d")
    ny = nx if ny is None else ny
    ex = np.ones(nx)
    ey = np.ones(ny)
    tx = sp.diags([-ex[:-1], 2 * ex, -ex[:-1]], [-1, 0, 1])
    ty = sp.diags([-ey[:-1], 2 * ey, -ey[:-1]], [-1, 0, 1])
    lap = sp.kron(sp.eye(ny), tx) + sp.kron(ty, sp.eye(nx))
    return CSRMatrix.from_scipy(lap)


def laplacian_3d(nx: int, ny: int | None = None, nz: int | None = None) -> CSRMatrix:
    """7-point Laplacian on an ``nx × ny × nz`` grid (SPD)."""
    sp = import_scipy("sparse", "laplacian_3d")
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz

    def t(n: int) -> "sp.spmatrix":
        e = np.ones(n)
        return sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1])

    ix, iy, iz = sp.eye(nx), sp.eye(ny), sp.eye(nz)
    lap = (
        sp.kron(iz, sp.kron(iy, t(nx)))
        + sp.kron(iz, sp.kron(t(ny), ix))
        + sp.kron(t(nz), sp.kron(iy, ix))
    )
    return CSRMatrix.from_scipy(lap)


def anisotropic_2d(nx: int, ny: int | None = None, eps: float = 0.1) -> CSRMatrix:
    """Anisotropic diffusion stencil ``-u_xx - eps·u_yy`` (SPD, harder for CG)."""
    sp = import_scipy("sparse", "anisotropic_2d")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    ny = nx if ny is None else ny
    ex = np.ones(nx)
    ey = np.ones(ny)
    tx = sp.diags([-ex[:-1], 2 * ex, -ex[:-1]], [-1, 0, 1])
    ty = sp.diags([-ey[:-1], 2 * ey, -ey[:-1]], [-1, 0, 1])
    lap = sp.kron(sp.eye(ny), tx) + eps * sp.kron(ty, sp.eye(nx))
    return CSRMatrix.from_scipy(lap)


def banded_spd(n: int, bandwidth: int, seed: int | np.random.Generator = 0) -> CSRMatrix:
    """Random symmetric banded matrix made SPD by diagonal dominance.

    Off-diagonals within ``bandwidth`` get uniform(−1, 0) entries; the
    diagonal is set to (row |off-diag| sum) + 1, which guarantees strict
    diagonal dominance with positive diagonal, hence SPD.
    """
    sp = import_scipy("sparse", "banded_spd")
    if bandwidth < 1 or bandwidth >= n:
        raise ValueError(f"bandwidth must be in [1, n); got {bandwidth} for n={n}")
    rng = as_generator(seed)
    diags = []
    offsets = []
    for k in range(1, bandwidth + 1):
        band = -rng.uniform(0.0, 1.0, size=n - k)
        diags.append(band)
        offsets.append(k)
    upper = sp.diags(diags, offsets, shape=(n, n))
    symm = upper + upper.T
    row_abs = np.abs(symm).sum(axis=1).A1 if hasattr(np.abs(symm).sum(axis=1), "A1") else np.asarray(np.abs(symm).sum(axis=1)).ravel()
    mat = symm + sp.diags(row_abs + 1.0)
    return CSRMatrix.from_scipy(mat)


def random_spd(
    n: int,
    density: float,
    seed: int | np.random.Generator = 0,
    *,
    shift: float = 1.0,
) -> CSRMatrix:
    """Random sparse SPD matrix of prescribed size and approximate density.

    A random sparse symmetric pattern with uniform(−1, 0) off-diagonal
    entries is shifted to strict diagonal dominance:
    ``A = S + diag(Σ_j |s_ij| + shift)``.  The resulting density matches
    the request to within the duplicate-collision rate of the sampler.
    """
    sp = import_scipy("sparse", "random_spd")
    if not 0 < density <= 1:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    rng = as_generator(seed)
    # Target nnz for the symmetric off-diagonal part (diagonal is full).
    target_offdiag = max(0, int(density * n * n) - n)
    m = target_offdiag // 2  # strictly-upper entries to sample
    if m > 0:
        rows = rng.integers(0, n - 1, size=m)
        cols = rng.integers(1, n, size=m)
        swap = cols <= rows
        rows[swap], cols[swap] = cols[swap] - 1, rows[swap] + 1
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
        vals = -rng.uniform(0.0, 1.0, size=rows.size)
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        upper.sum_duplicates()
        symm = upper + upper.T
    else:
        symm = sp.csr_matrix((n, n))
    row_abs = np.asarray(np.abs(symm).sum(axis=1)).ravel()
    mat = symm + sp.diags(row_abs + shift)
    return CSRMatrix.from_scipy(mat)


def graph_laplacian_spd(
    n: int,
    avg_degree: int = 6,
    seed: int | np.random.Generator = 0,
    *,
    shift: float = 1.0,
) -> CSRMatrix:
    """Shifted Laplacian ``L + shift·I`` of a random regular-ish graph.

    Graph Laplacians are the paper's own example of matrices with zero
    column sums (Section 3.2) — they exercise the checksum-shift logic.
    The shift makes the matrix SPD rather than merely PSD.

    Uses :mod:`networkx` for small n and a fast configuration-style
    sampler for large n.
    """
    sp = import_scipy("sparse", "graph_laplacian_spd")
    rng = as_generator(seed)
    if n <= 2000:
        import networkx as nx

        d = min(avg_degree, n - 1)
        if (d * n) % 2:
            d += 1 if d + 1 < n else -1
        g = nx.random_regular_graph(d, n, seed=int(rng.integers(2**31)))
        lap = nx.laplacian_matrix(g).astype(np.float64)
        mat = lap + shift * sp.eye(n)
        return CSRMatrix.from_scipy(mat)
    # Large n: sample random edges directly.
    m = n * avg_degree // 2
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    adj = sp.coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0  # collapse duplicate edges
    adj = adj + adj.T
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg) - adj
    return CSRMatrix.from_scipy(lap + shift * sp.eye(n))


def stencil_spd(
    n_target: int,
    *,
    kind: str = "box",
    radius: int = 1,
    shift: float = 1e-3,
    anisotropy: float = 1.0,
) -> CSRMatrix:
    """Wide-stencil 2-D diffusion operator: an SPD matrix with a
    continuously spread spectrum and controllable density.

    On a ``⌈√n⌉ × ⌈√n⌉`` grid, each point couples to neighbours within
    Chebyshev ``radius`` (``kind="box"``: the full (2r+1)²−1
    neighbourhood, ≈ (2r+1)² nnz/row; ``kind="cross"``: axis-aligned
    only, 4r+1 nnz/row) with weight ``−1/dist²`` (y-distances scaled by
    ``anisotropy``); the diagonal is the negated off-diagonal row sum
    plus ``shift``.  Row sums equal ``shift``, so the matrix is a
    (strictly) shifted Laplacian — SPD with spectrum filling
    ``[≈shift, O(1)]`` like a discretized elliptic PDE, which is what
    makes CG take ``O(grid side)`` iterations instead of the handful a
    diagonally dominant random matrix needs.  This mirrors the UFL
    matrices of the paper's Table 1, which are predominantly PDE
    discretizations.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if kind not in ("box", "cross"):
        raise ValueError(f"kind must be 'box' or 'cross', got {kind!r}")
    if shift <= 0:
        raise ValueError(f"shift must be positive, got {shift}")
    side = max(2, int(round(n_target**0.5)))
    n = side * side

    # Assembled directly in CSR: walking the stencil lexicographically
    # in (dx, dy) visits each row's in-grid neighbours in ascending
    # column order (column = row + dx·side + dy, and an in-grid
    # neighbour has |dy| < side), so the boolean selections below are
    # already row-major and column-sorted.
    reach = [
        (dx, dy)
        for dx in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        if kind == "box" or dx == 0 or dy == 0
    ]
    centre = reach.index((0, 0))
    weights = np.array(
        [
            0.0 if dx == dy == 0 else -1.0 / (dx * dx + (dy * anisotropy) ** 2)
            for dx, dy in reach
        ]
    )
    dxs, dys = np.array(reach).T

    gx, gy = np.divmod(np.arange(n), side)
    nx = gx[:, None] + dxs
    ny = gy[:, None] + dys
    inside = (nx >= 0) & (nx < side) & (ny >= 0) & (ny < side)
    rowidx = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=rowidx[1:])
    colid = (nx * side + ny)[inside]

    # Diagonal = −(off-diagonal row sum) + shift, the row sum taken with
    # ``np.add.reduceat`` over the row's values in column order (the
    # summation order the matrices have always been built with; every
    # row has a neighbour because side >= 2, so no segment is empty).
    val2d = np.tile(weights, (n, 1))
    neighbours = inside.copy()
    neighbours[:, centre] = False
    val2d[:, centre] = shift - np.add.reduceat(
        val2d[neighbours], rowidx[:-1] - np.arange(n)
    )
    return CSRMatrix(val2d[inside], colid, rowidx, (n, n))


def diagonally_dominant_spd(
    n: int, nnz_per_row: int = 8, seed: int | np.random.Generator = 0
) -> CSRMatrix:
    """SPD matrix with roughly ``nnz_per_row`` nonzeros per row.

    Convenience wrapper over :func:`random_spd` parameterized by row
    count rather than global density.
    """
    density = min(1.0, nnz_per_row / n)
    return random_spd(n, density, seed)
