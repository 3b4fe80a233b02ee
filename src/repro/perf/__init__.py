"""Zero-copy hot-path support: workspaces and per-process caches.

The perf layer keeps repeated protected solves allocation-free without
changing any result bit (see :mod:`repro.perf.workspace` for the
correctness argument):

- :class:`SolveWorkspace` — preallocated SpMxV/ABFT/checkpoint buffers
  plus live-matrix reuse with strike-undo restore between repetitions;
- :func:`default_workspace` — the process's shared workspace, used by
  ``repro.solve(reuse_workspace=True)`` and by every campaign task a
  process executes;
- :func:`clear_caches` — explicit reset hook for every per-process
  cache (checksums, suite matrices, the default workspace); call it if
  you mutate a previously-solved matrix in place or need to bound
  memory in a long-lived process.
"""

from __future__ import annotations

from repro.perf.workspace import SolveWorkspace

__all__ = ["SolveWorkspace", "default_workspace", "clear_caches"]

_DEFAULT: "SolveWorkspace | None" = None


def default_workspace() -> SolveWorkspace:
    """The process-wide shared workspace (created on first use).

    Single-threaded use only — concurrent solves must each bring their
    own :class:`SolveWorkspace`.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SolveWorkspace()
    return _DEFAULT


def clear_caches() -> None:
    """Reset every per-process perf cache.

    Drops the ABFT checksum cache, the suite-matrix cache
    (:func:`repro.sim.matrices.get_matrix`) and the default workspace.
    Safe at any quiescent point; required after mutating a matrix that
    previously went through a cached code path.
    """
    global _DEFAULT
    from repro.abft.checksums import clear_checksum_cache
    from repro.sim.matrices import clear_matrix_cache

    clear_checksum_cache()
    clear_matrix_cache()
    if _DEFAULT is not None:
        _DEFAULT.release()
    _DEFAULT = None
