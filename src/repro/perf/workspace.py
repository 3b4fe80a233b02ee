"""Preallocated solve workspaces and the strike-undo live-matrix pool.

The paper's evaluation metric is *mean execution time over many
repeated fault-injected solves* (Section 5), so the reproduction's
throughput ceiling is whatever every repetition re-does from scratch.
Before this layer, each repetition paid

- one full ``a.copy()`` to produce the corruptible live matrix
  (O(nnz)),
- one ABFT checksum recomputation (O(nchecks·nnz) — the setup cost
  Section 3.2 says to pay *once* per matrix),
- and per iteration a fresh O(nnz) scratch array, a fresh output
  vector and a defensive ``colid`` range scan inside every SpMxV.

A :class:`SolveWorkspace` removes all of it without changing a single
float:

- **named buffer pool** — ``buffer(name, size)`` hands out persistent
  ``float64`` arrays the SpMxV/ABFT/engine layers overwrite in place;
- **live-matrix reuse with strike-undo restore** — the fault injector
  and the ABFT corrector report every matrix word they touch
  (:meth:`note_matrix_mutation`); between repetitions the workspace
  rewrites exactly those words from the pristine source (O(#faults),
  typically single digits) instead of recopying O(nnz) arrays, and
  restores the :attr:`~repro.sparse.csr.CSRMatrix.structure_clean`
  stamp so unfaulted SpMxVs skip their index scans — and while the
  stamp is down, publishes the tainted ``colid`` words that deviate
  from the source as the wild-set hint
  (:meth:`SolveWorkspace._publish_wild`), so struck ones skip them too;
- **delta matrix checkpoints** — a checkpoint stores only the words
  currently deviating from the pristine source
  (:meth:`capture_matrix_state`), and a rollback restores them in
  O(#faults) (:meth:`restore_matrix_state`);
- **per-source caches** — ``‖A‖₁`` for the stopping threshold (the
  checksum cache itself is process-global, see
  :func:`repro.abft.checksums.cached_checksums`).

Workspaces are **not** thread-safe and must not be shared across
concurrently running solves; the campaign executor keeps one per
worker process.

Correctness argument for strike-undo (the taint superset invariant):
at every instant, the set of live-matrix words differing from the
pristine source is a subset of the recorded taint. Strikes and ABFT
repairs are recorded at the point of mutation; a checkpoint restore
copies values whose deviations were recorded before the snapshot; an
engine refresh copies pristine data (removing deviations, never adding
any). Rewriting the tainted words from the source therefore restores
bit-equality — positions tainted but not currently deviating are
rewritten with the value they already hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import METRICS
from repro.perf.trajectory import TrajectoryMemo
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import structure_arrays_clean

if TYPE_CHECKING:  # pragma: no cover
    from repro.abft.checksums import SpmvChecksums

__all__ = ["SolveWorkspace"]

#: The corruptible matrix arrays, in injector registration order.
_MATRIX_ARRAYS = ("val", "colid", "rowidx")
#: An empty taint record (never written: a mutation appends a copy).
_UNTAINTED = np.empty(0, dtype=np.int64)


class SolveWorkspace:
    """Reusable buffers + live-matrix pool for repeated protected solves.

    One workspace serves one solve at a time; reusing it across
    repetitions (and across matrices — switching sources just rebuilds
    the live copy) is what :func:`repro.sim.engine.repeat_run`,
    the campaign executor and ``solve(reuse_workspace=True)`` do.  A
    solve given no workspace runs on a :meth:`private` one, so every
    protected solve takes this one path.
    """

    def __init__(self, *, backend: "object | None" = None) -> None:
        #: Default kernel backend (name or :class:`repro.backends
        #: .KernelBackend`) for solves run through this workspace;
        #: ``None`` = reference.  An explicit ``backend=`` on the solve
        #: entry point always wins — the attribute only fills the gap,
        #: so one workspace can serve tasks on different backends.
        self.backend = backend
        #: Whether solves bind the clean-trajectory memo and read the
        #: process checksum cache; ``False`` for a :meth:`private` one.
        self.shared = True
        self._buffers: dict[str, np.ndarray] = {}
        self._abft_bundle: "tuple | None" = None  #: (n, nnz, buffers…)
        self._live: "CSRMatrix | None" = None
        self._live_source: "CSRMatrix | None" = None
        self._source_view: "CSRMatrix | None" = None
        self._live_clean = False  #: structure verdict for the *source*
        self._live_rows_nonempty: "bool | None" = None  #: hoisted with the verdict
        #: Per matrix array, the positions rewritten since the live copy
        #: was last bit-equal to its source, as an index array (a
        #: position struck twice is listed twice; rewriting it twice is
        #: harmless).
        self._taint: dict[str, np.ndarray] = dict.fromkeys(_MATRIX_ARRAYS, _UNTAINTED)
        self._norm1: "float | None" = None
        self._jacobi_minv: "np.ndarray | None" = None
        self._trajectory: "TrajectoryMemo | None" = None
        #: State kept between the solves of one binding (plugin vector
        #: sets, the engine's fault-target table), by owner key; it
        #: refers to the live copy and the buffers, so it is dropped
        #: whenever the binding changes.
        self.bound: dict = {}
        # Telemetry for tests/benchmarks (no behavioural role).  The
        # buffer-pool pair uses plain int attributes, not the METRICS
        # registry: buffer() sits on the per-iteration hot path, where
        # an attribute increment is the budget; the campaign executor
        # folds these into the telemetry snapshot instead.
        self.live_copies = 0
        self.live_restores = 0
        self.buffer_requests = 0
        self.buffer_allocs = 0

    @classmethod
    def private(cls) -> "SolveWorkspace":
        """The throwaway workspace of one solve given none.

        It binds no clean-trajectory memo (nothing can replay it) and
        computes its checksums instead of reading the process cache,
        which keys on the matrix object: an in-place edit of the
        matrix between two such solves is seen.
        """
        ws = cls()
        ws.shared = False
        return ws

    # ------------------------------------------------------------------
    # named buffer pool
    # ------------------------------------------------------------------
    def buffer(self, name: str, size: int, dtype: "np.dtype | type" = np.float64) -> np.ndarray:
        """A persistent scratch array of at least ``size`` elements.

        Contents are *unspecified* on return — callers overwrite.  The
        same name always maps to the same storage (grown on demand), so
        two concurrently-live uses of one name would alias; buffer
        names are namespaced per call site (``"abft.y"``,
        ``"spmv.scratch"``, …) to prevent that.
        """
        self.buffer_requests += 1
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != np.dtype(dtype):
            self.buffer_allocs += 1
            buf = np.empty(max(size, 1), dtype=dtype)
            self._buffers[name] = buf
        return buf[:size] if buf.shape[0] != size else buf

    def zeros(self, name: str, size: int) -> np.ndarray:
        """:meth:`buffer`, zero-filled."""
        buf = self.buffer(name, size)
        buf[:] = 0.0
        return buf

    def vector_set(self, owner: str, names: "tuple[str, ...]", n: int) -> tuple:
        """The buffers ``owner.name`` for every name, length ``n`` each:
        the same array objects on every call of one binding, so what
        is built over them (the engine's fault-target table) is built
        once.  Contents are unspecified, as for :meth:`buffer`."""
        key = ("vectors", owner, names, n)
        vecs = self.bound.get(key)
        if vecs is None:
            vecs = self.bound[key] = tuple(self.buffer(f"{owner}.{name}", n) for name in names)
        else:
            self.buffer_requests += len(names)
        return vecs

    def abft_buffers(self, nrows: int, ncols: int, nnz: int) -> tuple:
        """The protected-SpMxV buffer set, resolved in one call.

        Returns ``(x_ref, y, scratch, ridx, xdiff)`` with ``x_ref``
        input-sized and the rest output/nnz-sized; one protected
        product draws five buffers per call, so the per-name dict
        lookups are folded into a single shape-keyed slot.
        """
        bundle = self._abft_bundle
        if bundle is not None and bundle[0] == (nrows, ncols, nnz):
            return bundle[1]
        bufs = (
            self.buffer("abft.xref", ncols),
            self.buffer("abft.y", nrows),
            self.buffer("spmv.scratch", nnz),
            self.buffer("verify.ridx", nrows),
            self.buffer("verify.xdiff", nrows),
        )
        self._abft_bundle = ((nrows, ncols, nnz), bufs)
        return bufs

    # ------------------------------------------------------------------
    # live-matrix pool (strike-undo restore)
    # ------------------------------------------------------------------
    def acquire_live(self, a: CSRMatrix) -> CSRMatrix:
        """A corruptible working copy of ``a``, bit-equal to ``a``.

        First acquisition for a source copies O(nnz); subsequent
        acquisitions for the *same object* un-write exactly the tainted
        words (O(#faults)) and reuse the same arrays — essential
        because the fault injector and the recurrence plugins hold
        references into them.
        """
        if self._live is not None and self._live_source is a:
            self._undo_taint()
            self.live_restores += 1
            METRICS.inc("workspace.live_restore")
            return self._live
        self._live = a.copy()
        self._live_source = a
        self._live_clean = structure_arrays_clean(a)
        if self._live_clean:
            self._live.assume_clean_structure()
            self._live_rows_nonempty = self._live._rows_nonempty
            # Flag-stamped *view* of the source (shares its arrays, has
            # its own stamp): products against the pristine matrix —
            # the engine's reliable convergence checks and refreshes —
            # skip the SpMxV guards without mutating the user's object.
            view = CSRMatrix(a.val, a.colid, a.rowidx, a.shape, check=False)
            view.assume_clean_structure()
            self._source_view = view
        else:
            self._live.mark_structure_dirty()
            self._live_rows_nonempty = None
            self._source_view = a
        self._taint = dict.fromkeys(_MATRIX_ARRAYS, _UNTAINTED)
        self._norm1 = None
        self._jacobi_minv = None
        self._trajectory = None
        self.bound = {}
        self.live_copies += 1
        METRICS.inc("workspace.live_copy")
        return self._live

    def source_view(self) -> "CSRMatrix":
        """The bound source, through its flag-stamped view.

        Same bytes (the view shares the source's arrays); only the
        structure stamp differs, living on the view so the caller's
        object is never mutated.
        """
        assert self._source_view is not None
        return self._source_view

    def _rearm_live(self) -> None:
        """Re-stamp the live matrix with the source's structure verdict."""
        live = self._live
        if live is not None and self._live_clean:
            live._structure_clean = True
            live._rows_nonempty = self._live_rows_nonempty
            live._wild = None

    def note_matrix_mutation(self, name: str, position: int) -> None:
        """Record that one word of a live matrix array was rewritten.

        Called by the engine for every injector strike on
        ``val``/``colid``/``rowidx`` and for every word the ABFT decoder
        patches in place.  Index-array mutations also revoke the live
        matrix's ``structure_clean`` stamp and re-publish its wild-set
        hint (:meth:`_publish_wild`).
        """
        self._taint[name] = np.append(self._taint[name], position)
        if name != "val" and self._live is not None:
            self._publish_wild()

    def _publish_wild(self) -> None:
        """Drop the live stamp and publish the tainted ``colid`` words
        that deviate from the source as the live matrix's wild-set hint
        (:attr:`~repro.sparse.csr.CSRMatrix.rows_clean`).

        The hint is sound while the source is structurally clean and
        every tainted ``rowidx`` word equals the source's: ``rowidx`` is
        then the validated source's, and an out-of-range ``colid`` word
        deviates from the source, so it is tainted (the superset
        invariant in the module doc).  Re-checked here, at every index
        mutation and every restore with the stamp down: O(#faults).
        """
        live = self._live
        assert live is not None
        live.mark_structure_dirty()
        if self._live_clean and self._pristine("rowidx"):
            idx = self._taint["colid"]
            live._wild = idx[live.colid[idx] != self._live_source.colid[idx]]
            live._rows_nonempty = self._live_rows_nonempty

    def _pristine(self, name: str) -> bool:
        """Whether every tainted word of array ``name`` equals the
        source's again: O(#faults)."""
        idx = self._taint[name]
        return bool(
            np.array_equal(getattr(self._live, name)[idx], getattr(self._live_source, name)[idx])
        )

    def _unwrite_tainted(self, *, clear: bool) -> None:
        """Rewrite every tainted word of the live arrays from the
        pristine source (the single copy of the un-write mechanics)."""
        live, src = self._live, self._live_source
        assert live is not None and src is not None
        for name, idx in self._taint.items():
            if idx.size:
                getattr(live, name)[idx] = getattr(src, name)[idx]
        if clear:
            self._taint = dict.fromkeys(_MATRIX_ARRAYS, _UNTAINTED)

    def _undo_taint(self) -> None:
        """Restore the live matrix to bit-equality with the source."""
        self._unwrite_tainted(clear=True)
        self._rearm_live()

    # ------------------------------------------------------------------
    # delta matrix checkpoints
    # ------------------------------------------------------------------
    def capture_matrix_state(self) -> dict:
        """Snapshot the live matrix as deviations from the source.

        Returns per-array ``(positions, values)`` pairs for the words
        tainted *now*; :meth:`restore_matrix_state` reproduces the
        exact byte state from them.  O(#faults) instead of the O(nnz)
        full-matrix checkpoint copy.
        """
        live = self._live
        assert live is not None
        return {
            name: (idx, getattr(live, name)[idx].copy())
            for name, idx in self._taint.items()
            if idx.size
        }

    def restore_matrix_state(self, deltas: dict) -> None:
        """Restore the live matrix to a :meth:`capture_matrix_state` state.

        Implemented as strike-undo to the pristine source followed by
        re-applying the captured deviations (which re-taints nothing:
        captured positions are already in the taint set — it only ever
        shrinks at :meth:`acquire_live`).
        """
        live = self._live
        assert live is not None
        self._unwrite_tainted(clear=False)
        for name, (idx, values) in deltas.items():
            getattr(live, name)[idx] = values
        # The restored state deviates from the source only at the
        # captured words; if none of them sit in an index array, the
        # structure verdict of the source holds again — re-arm the fast
        # path that the strike had disarmed.  Otherwise the stamp stays
        # as it is (the ledger's slack, DESIGN §4) and, when it is down,
        # the wild-set hint follows the restored bytes.
        if "colid" not in deltas and "rowidx" not in deltas:
            self._rearm_live()
        elif not live.structure_clean:
            self._publish_wild()

    def reverify_structure(self) -> None:
        """Re-arm the live structure stamp if no index word deviates.

        Called after a *forward* repair of ``colid``/``rowidx`` (which
        restores the exact original integer, but never rolls back — so
        nothing else would clear the dirty flag).  Compares only the
        tainted index words against the source: O(#faults).
        """
        live = self._live
        if live is None or not self._live_clean or live.structure_clean:
            return
        if self._pristine("colid") and self._pristine("rowidx"):
            self._rearm_live()

    def mark_live_pristine(self) -> None:
        """Declare the live matrix byte-equal to the source *right now*.

        Called by the engine after a refresh re-read the pristine data
        into the live arrays wholesale; restores the source's structure
        verdict (the taint ledger is untouched — it is a superset
        contract, and re-undoing an already-pristine word is harmless).
        """
        self._rearm_live()

    # ------------------------------------------------------------------
    # per-source caches
    # ------------------------------------------------------------------
    def source_norm1(self, a: CSRMatrix) -> float:
        """``‖A‖₁`` of the bound source ``a``, computed once per binding."""
        assert self._live_source is a
        if self._norm1 is None:
            from repro.sparse.norms import norm1

            self._norm1 = norm1(a)
        return self._norm1

    def jacobi_minv(self, a: CSRMatrix) -> np.ndarray:
        """``diag(A)⁻¹`` of the bound source ``a`` (the Jacobi
        preconditioner), computed once per binding; raises
        ``ValueError`` when the diagonal has a zero (the matrix would not
        be SPD anyway).  The returned array is shared read-only metadata
        (like the checksums) — callers must not mutate it.
        """
        assert self._live_source is a
        if self._jacobi_minv is None:
            diag = a.diagonal()
            if np.any(diag == 0.0):
                raise ValueError("Jacobi preconditioner requires a zero-free diagonal")
            self._jacobi_minv = 1.0 / diag
        return self._jacobi_minv

    def trajectory(
        self, method: str, backend: "object | None", b: np.ndarray
    ) -> TrajectoryMemo:
        """The clean-trajectory memo of ``method`` on the bound source
        from a zero initial guess (see :mod:`repro.perf.trajectory`).

        One slot: a solve whose (method, resolved backend, ``b`` by
        value) differs from the held memo's starts a new one, and
        re-binding the live copy to another source drops it — campaigns
        walk their grids matrix by matrix and method by method, so the
        slot is hit by every repetition of every scheme, α, ``s``,
        ``d`` and ``eps`` in between.
        """
        memo = self._trajectory
        if memo is None or not memo.matches(method, backend, b):
            memo = self._trajectory = TrajectoryMemo(
                method, backend, b, source=self._live_source
            )
            METRICS.inc("workspace.trajectory_builds")
        return memo

    def checksums(
        self, a: CSRMatrix, *, nchecks: int, backend: "object | None" = None
    ) -> "SpmvChecksums":
        """ABFT metadata for ``a``: process-cached (see
        :func:`repro.abft.checksums.cached_checksums`), or computed
        afresh by a :meth:`private` workspace.  ``backend`` is the
        resolved kernel backend whose ``checksum_products`` runs the
        setup product (``None`` = reference)."""
        from repro.abft.checksums import cached_checksums, compute_checksums

        if not self.shared:
            return compute_checksums(a, nchecks=nchecks, backend=backend)
        return cached_checksums(a, nchecks=nchecks, backend=backend)

    def release(self) -> None:
        """Drop every held array and matrix reference.

        Un-binds the live copy (and the strong reference to its source
        matrix) and empties the buffer pool, so a long-lived process can
        actually reclaim the memory; the workspace remains usable — the
        next solve simply re-allocates.
        """
        self._buffers.clear()
        self._abft_bundle = None
        self._live = None
        self._live_source = None
        self._source_view = None
        self._live_clean = False
        self._live_rows_nonempty = None
        self._taint = dict.fromkeys(_MATRIX_ARRAYS, _UNTAINTED)
        self._norm1 = None
        self._jacobi_minv = None
        self._trajectory = None
        self.bound = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nbuf = len(self._buffers)
        bound = "unbound" if self._live_source is None else f"n={self._live_source.nrows}"
        return f"SolveWorkspace({nbuf} buffers, {bound}, copies={self.live_copies}, restores={self.live_restores})"
