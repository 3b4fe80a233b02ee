"""Solver-agnostic resilience engine.

One engine executes any recurrence plugin under the paper's three
protection schemes.  The engine owns every solver-independent piece of
the fault-tolerance machinery that the seed tree used to duplicate in
``core/ft_cg.py`` and ``core/ft_krylov.py``:

- the Poisson strike sampler and the live (corruptible) matrix copy;
- ABFT checksum metadata and the protected SpMxV service, with strikes
  routed into the pre-/post-product windows the plugin declares;
- TMR voting over the vector-kernel phase (single strike out-voted,
  double strike defeats the vote);
- checkpoint/restore orchestration, including the stuck-rollback
  probe that escalates to a refresh (re-read of initial data) when a
  checkpoint itself is tainted;
- the reliable final convergence check;
- all accounting: simulated ``Titer`` time, the
  :class:`~repro.resilience.accounting.TimeBreakdown`, the
  :class:`~repro.resilience.accounting.RecoveryCounters` and the
  recovery events handed to the run's tracer.

Plugins advance their recurrence through the :class:`EngineContext`
services inside :meth:`RecurrencePlugin.step`; everything before and
after the step — sampling, rollback, checkpointing, the final check —
is the engine's.  The engine reproduces the seed drivers' trajectories
bit-for-bit (``tests/test_resilience_golden.py``): the RNG stream is
consumed only by strike sampling, and both the floating-point
accounting order and the injector registration order are preserved.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.abft.checksums import compute_checksums
from repro.abft.spmv import SpmvStatus, protected_spmv
from repro.backends import resolve_backend
from repro.checkpoint.policy import PeriodicCheckpointPolicy
from repro.checkpoint.store import Checkpoint, CheckpointStore
from repro.core.cg import cg_tolerance_threshold
from repro.core.methods import SchemeConfig
from repro.faults.injector import FaultInjector, FaultModel
from repro.obs.metrics import METRICS
from repro.obs.tracer import Tracer, resolve_tracer
from repro.resilience.accounting import RecoveryCounters, SolveResult, TimeBreakdown
from repro.resilience.protocol import RecurrencePlugin, StepOutcome
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv
from repro.sparse.validate import structure_arrays_clean
from repro.util.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.trajectory import TrajectoryMemo
    from repro.perf.workspace import SolveWorkspace

__all__ = ["EngineContext", "run_protected"]

#: Matrix arrays whose in-place repair by the ABFT decoder must enter
#: the workspace's strike-undo ledger (vector repairs need no ledger —
#: iteration vectors are fully re-initialized per run).
_MATRIX_CORRECTION_KINDS = frozenset({"val", "colid", "rowidx"})

#: Test-only probe, ``None`` in production: called as ``hook(ctx,
#: vectors)`` at every point the engine claims ``vectors`` (by name) are
#: byte-equal to the clean trajectory's at ``ctx.plugin.iteration`` and
#: the live matrix to its source — after a clean real step, after every
#: materialisation, at solve end.  ``tests/test_trajectory_memo.py``
#: sets it from a fixture to compare against an independent
#: workspace-free, strike-free run.
_clean_claim_hook: "Callable[[EngineContext, dict[str, np.ndarray]], None] | None" = None


class EngineContext:
    """The protected services a plugin may use inside one run.

    The context wraps the engine's mutable run state (time ledger,
    injector, checksums, counters) and exposes the operations the
    paper's schemes are built from.  Charging methods mirror the seed
    drivers' accounting exactly — each is one specific sequence of
    float additions, preserved so trajectories stay bit-identical.
    """

    def __init__(
        self,
        plugin: RecurrencePlugin,
        a: CSRMatrix,
        live: CSRMatrix,
        b: np.ndarray,
        config: SchemeConfig,
        workspace: "SolveWorkspace | None" = None,
        backend: "object | None" = None,
    ) -> None:
        self.plugin = plugin
        #: Resolved kernel backend (``None`` = reference fast path);
        #: used for every SpMxV the engine or its plugins issue.
        self.backend = backend
        self.a = a  #: pristine input matrix (reliable storage)
        #: ``a`` through a flag-stamped view (same bytes, own structure
        #: stamp) so reliable products skip the SpMxV guards; set by the
        #: runner, defaults to ``a`` itself.
        self.a_view = a
        self.live = live  #: the corruptible working copy
        self.b = b
        self.config = config
        self.costs = config.costs
        self.scheme = config.scheme
        self.workspace = workspace
        self.counters = RecoveryCounters()
        self.breakdown = TimeBreakdown()
        self.time_units = 0.0
        self.uncommitted = 0.0  #: iteration time not yet saved by a checkpoint
        #: ``Tverif`` for this scheme, hoisted out of the charge path
        #: (the property re-derives it from the scheme on every call).
        self._verification_cost = config.verification_cost
        self.threshold = 0.0  #: set by the engine once the initial residual exists
        #: Norm of the latest :meth:`reliably_converged` check that
        #: passed; the runner clears it at the top of every iteration.
        self.accepted_residual: "float | None" = None
        self.injector: FaultInjector | None = None
        self.checksums = None
        #: Resolved tracer (``None`` = tracing off); set by the runner.
        #: Every emission below funnels through :meth:`trace`, whose
        #: ``None`` test is the whole cost of disabled tracing.
        self.tracer: "Tracer | None" = None
        #: Structure verdict of the pristine input (set by the runner);
        #: lets a refresh re-arm the live matrix's fast-path stamp.
        self._live_clean0 = False
        # Recycling is safe here because the store is engine-private:
        # borrowed checkpoints are only read before the next save.
        self.store = CheckpointStore(keep=1, recycle=True)
        #: Matrix deviations from ``a`` at the latest checkpoint, in
        #: workspace mode (where checkpoints skip the O(nnz) matrix
        #: copy and store only the tainted words).
        self._cp_matrix_deltas: "dict | None" = None
        self.policy = PeriodicCheckpointPolicy(config.checkpoint_interval)
        # A rollback loop longer than this means the checkpoint itself
        # is tainted (e.g. a matrix corruption that slipped verification
        # while its column's input entry was ≈ 0): fall back to
        # re-reading the initial data, the paper's recovery of last
        # resort.
        self.stuck_threshold = max(8, 2 * config.checkpoint_interval)
        self.stuck = 0
        # -- taint state (docs/DESIGN.md §4) ---------------------------
        #: The bound clean-trajectory memo ``T``; ``None`` = every
        #: iteration is executed (no workspace, ``x0`` given, an
        #: iteration observer attached, or a plugin without the
        #: ``advance_clean``/``replay_step`` pair).
        self.memo: "TrajectoryMemo | None" = None
        #: The logical state is ``T[plugin.iteration]`` and the live
        #: matrix is byte-equal to its source (under a non-reference
        #: backend: and carries the structure stamp, which routes the
        #: kernel).  Only ever true with a memo bound.
        self.clean = False
        #: Index ``c`` such that the plugin's real vectors hold
        #: ``T[c]``; ``None`` once anything off the trajectory was
        #: written into them.  While ``clean``, the state is
        #: *materialised* iff ``cursor == plugin.iteration``.
        self.cursor: "int | None" = None
        #: Trajectory index of the latest checkpoint, ``None`` if it
        #: was taken off the trajectory (a snapshot inherits the taint
        #: of the state it copies) …
        self._cp_clean: "int | None" = None
        #: … and of the one held in :attr:`store`; they differ while the
        #: latest checkpoint is index-only.
        self._stored_clean: "int | None" = None
        self._flips0 = 0  #: injector.net_flips when the current real step began
        self.virtual = 0  #: iterations accounted from the memo
        self.replayed = 0  #: clean steps re-executed to materialise vectors
        #: Protected products whose kernel ran with the live stamp down.
        self.guarded = 0

    def trace(self, kind: str, **fields) -> None:
        """Emit one trace event at the plugin's current iteration.

        No-op when tracing is off.  Pure observation — safe to call
        from plugins at decision points (the CG/PCG breakdown guards,
        Chen verification outcomes) without affecting trajectories.
        """
        if self.tracer is not None:
            self.tracer.emit(kind, self.plugin.iteration, **fields)

    # ------------------------------------------------------------------
    # accounting services
    # ------------------------------------------------------------------
    def charge_iteration(self) -> None:
        """Bill one unverified iteration (ONLINE-DETECTION mid-chunk)."""
        self.time_units += self.costs.t_iter
        self.uncommitted += self.costs.t_iter

    def charge_verified_iteration(self) -> None:
        """Bill one iteration plus its per-iteration ABFT verification."""
        self.time_units += self.costs.t_iter + self._verification_cost
        self.uncommitted += self.costs.t_iter
        self.breakdown.verification += self._verification_cost
        self.counters.verifications += 1

    def charge_verification(self, cost: float) -> None:
        """Bill one standalone verification (Chen's periodic tests)."""
        self.time_units += cost
        self.breakdown.verification += cost
        self.counters.verifications += 1

    # ------------------------------------------------------------------
    # protected operations
    # ------------------------------------------------------------------
    def protected_product(
        self,
        x_in: np.ndarray,
        pre: "list[tuple[str, int, int]]",
        post: "list[tuple[str, int, int]]",
        *,
        count_detection: bool = False,
    ) -> "np.ndarray | None":
        """One ABFT-protected SpMxV with window-routed strikes.

        ``pre`` strikes (matrix arrays + the product's input vector)
        land after the reliable input snapshot is taken, so they are
        the ABFT layer's to catch; ``post`` strikes corrupt the freshly
        computed output.  Single errors are forward-corrected when the
        scheme corrects; returns the trusted product or ``None`` when
        the caller must roll back.
        """
        plugin = self.plugin

        hook = None
        if self.injector is not None and (pre or post):

            def hook(stage: str, _a, _x, y) -> None:
                if stage == "pre":
                    for s in pre:
                        self.injector.apply_strike(plugin.iteration, s)
                elif stage == "post" and y is not None:
                    for s in post:  # the output vector, struck before its copy-out
                        self.injector.apply_strike(plugin.iteration, s, into=y)

        result = protected_spmv(
            self.live,
            x_in,
            self.checksums,
            correct=self.scheme.corrects,
            fault_hook=hook,
            workspace=self.workspace,
            # The workspace only re-arms the live stamp on verified
            # byte-equality with the checksum source, so the stamp may
            # stand in for the exact row-pointer test.
            trust_structure_stamp=self.workspace is not None,
            backend=self.backend,
        )
        if not self.live.structure_clean:  # before any re-arm below
            self.guarded += 1
        corr = result.correction
        if (
            corr is not None
            and getattr(corr, "corrected", False)
            and corr.kind in _MATRIX_CORRECTION_KINDS
        ):
            if self.workspace is not None:
                # The decoder patched a matrix word in place (even an
                # UNCORRECTABLE outcome may carry a patch that re-verify
                # rejected): it must enter the strike-undo ledger.
                self.workspace.note_matrix_mutation(corr.kind, corr.position)
                if corr.kind != "val" and result.status is SpmvStatus.CORRECTED:
                    # Forward repair restored the exact index word and
                    # re-verified clean; nothing else will re-arm the
                    # fast path (correction never rolls back).
                    self.workspace.reverify_structure()
            elif (
                corr.kind != "val"
                and result.status is SpmvStatus.CORRECTED
                and self._live_clean0
                and not self.live.structure_clean
            ):
                # Legacy mode has no taint ledger: one full O(nnz)
                # re-check per (rare) index repair, amortized against
                # the per-call scans it re-enables.
                if structure_arrays_clean(self.live):
                    self.live.assume_clean_structure()
        if result.status is SpmvStatus.CORRECTED and corr is not None:
            self.counters.record_correction(corr.kind)
            self.trace("abft-correction", what=corr.kind, detail=corr.detail)
        if not result.trusted:
            if count_detection:
                self.counters.detections += 1
            self.trace("abft-detection", status=result.status.name.lower())
            return None
        return result.y

    def tmr_vote(
        self, strikes: "list[tuple[str, int, int]]", *, stop_on_failure: bool
    ) -> bool:
        """Vector-kernel phase under TMR.

        A single strike per vector is out-voted (applied then reverted,
        modelling the vote restoring the replicated value); a double
        strike in one vector defeats the vote and the corruption
        persists.  Returns False when any vote failed;
        ``stop_on_failure`` returns at the first failed target (CG)
        instead of finishing the remaining votes (BiCGstab).
        """
        if not strikes or self.injector is None:
            return True
        by_target: dict[str, list[tuple[str, int, int]]] = {}
        for s in strikes:
            by_target.setdefault(s[0], []).append(s)
        ok = True
        for target, hits in by_target.items():
            if len(hits) >= 2:
                for s in hits:  # the corruption happened; TMR failed to mask it
                    self.injector.apply_strike(self.plugin.iteration, s)
                self.counters.tmr_detections += 1
                self.trace("tmr-detection", target=target, strikes=len(hits))
                ok = False
                if stop_on_failure:
                    return False
            else:
                rec = self.injector.apply_strike(self.plugin.iteration, hits[0])
                self.injector.revert(rec)
                self.counters.tmr_corrections += 1
                self.trace("tmr-correction", target=target)
        return ok

    # ------------------------------------------------------------------
    # the clean trajectory: account what is known, execute the rest
    # ------------------------------------------------------------------
    def step(self, strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        """One iteration — *virtual* when its outcome is already known.

        A clean, strike-free iteration inside the memo's frontier is
        accounted (charges, counters, events, verdict — everything the
        record is built from) from the memoised scalars of ``T[k+1]``;
        no SpMxV, verification or vector kernel runs and the real
        vectors stay where :attr:`cursor` says.  Anything else is
        executed by the plugin on materialised vectors, and a step that
        ends ``advanced`` with no word left mutated extends the memo.
        """
        plugin = self.plugin
        if self.clean:
            if not strikes:
                scalars = self.memo.next_scalars(plugin.iteration)
                if scalars is not None:
                    outcome = plugin.advance_clean(self, scalars)
                    if outcome is not None:
                        self.virtual += 1
                        return outcome
            self.materialise()  # a strike needs the exact bytes it flips
        injector = self.injector
        if injector is not None:
            self._flips0 = injector.net_flips
        outcome = plugin.step(self, strikes)
        self.cursor = None
        if self.clean:
            if not self._step_untainted():
                self.clean = False  # until a rollback to a clean checkpoint
            elif not outcome.rolled_back:
                k = self.cursor = plugin.iteration
                self.memo.record(k, plugin.scalars(), plugin.vectors)
                if _clean_claim_hook is not None:
                    _clean_claim_hook(self, plugin.vectors)
        return outcome

    def _step_untainted(self) -> bool:
        """No word struck since the current real step began is still
        flipped (every strike site goes through the injector; a TMR
        out-vote reverts through it)."""
        return self.injector is None or self.injector.net_flips == self._flips0

    def materialise(self) -> None:
        """Make the real vectors hold the clean state the plugin is
        logically in (a no-op when they already do)."""
        if self.cursor != self.plugin.iteration:
            self._load_trajectory(self.plugin.iteration)
            if _clean_claim_hook is not None:
                _clean_claim_hook(self, self.plugin.vectors)

    def _load_trajectory(self, k: int) -> None:
        """Put ``T[k]`` into the plugin: vectors from the nearest source
        at or below ``k`` — what they already hold, the stored clean
        checkpoint, a memo snapshot — then strike-free replay."""
        plugin, memo = self.plugin, self.memo
        vectors = plugin.vectors
        here = self.cursor if self.cursor is not None and self.cursor <= k else -1
        snap = memo.nearest_snapshot(k)
        # While a clean state or an index-only checkpoint exists, the
        # stored checkpoint is a clean one at or below it (a tainted
        # save ends every clean stretch of the solve for good).
        start = max(here, self._stored_clean, snap)
        if start != here:
            source = memo.snapshots[snap] if start == snap else self.store.latest.vectors
            for name, vec in vectors.items():
                vec[:] = source[name]
        plugin.load_scalars(Checkpoint(start, {}, scalars=memo.steps[start]))
        for j in range(start + 1, k + 1):
            plugin.replay_step(self)
            memo.offer_snapshot(j, vectors)
        self.replayed += k - start
        self.cursor = k

    def clean_product(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = A·x`` against the pristine matrix through the run's
        kernel — the floats a strike-free step's product computes (for
        the plugins' ``replay_step``)."""
        scratch = self.workspace.buffer("spmv.scratch", self.a.nnz)
        return spmv(self.a_view, x, out=out, scratch=scratch, backend=self.backend)

    def note_chen(self, k: int, check_orthogonality: bool, passed: bool) -> None:
        """A real step ran Chen's tests on arriving at index ``k``; on
        the clean trajectory the verdict is a function of ``(k,
        check_orthogonality)`` alone and is kept for virtual steps."""
        if self.clean and self._step_untainted():
            self.memo.chen[(k, check_orthogonality)] = passed

    def chen_known_to_pass(self, k: int, check_orthogonality: bool) -> bool:
        """Whether Chen's tests are known to pass at clean index ``k``."""
        return self.memo.chen.get((k, check_orthogonality), False)

    # ------------------------------------------------------------------
    # checkpoint / rollback orchestration
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Checkpoint the full protected state (vectors + matrix + scalars).

        In workspace mode the matrix member of the checkpoint is the
        O(#faults) deviation record kept by the workspace instead of an
        O(nnz) array copy — the restore path reproduces the same bytes
        either way.  The checkpoint of a clean state whose vectors are
        not materialised is stored as its trajectory index alone.
        """
        if self.workspace is not None:
            self._cp_matrix_deltas = self.workspace.capture_matrix_state()
            matrix = None
        else:
            matrix = self.live
        k = self.plugin.iteration
        self._cp_clean = k if self.clean else None
        if self.clean and self.cursor != k:
            # A clean state is its index: the vectors are the memo's to
            # rebuild, only the matrix member (the deltas above) is kept.
            return
        self._stored_clean = self._cp_clean
        self.store.save(
            self.plugin.iteration,
            vectors=self.plugin.vectors,
            matrix=matrix,
            scalars=self.plugin.scalars(),
        )

    def _restore(self) -> None:
        """Copy checkpoint data back **into** the live arrays.

        In-place restore is essential: the fault injector holds
        references to these arrays, so rebinding would silently
        decouple injection from the solver state.  The checkpoint is
        *borrowed* (no defensive copy): values are copied out of it
        into the live arrays, never the reverse.  An index-only
        checkpoint restores the scalars and leaves the vectors to
        :meth:`materialise`.
        """
        index_only = self._cp_clean != self._stored_clean
        if index_only:
            cp = Checkpoint(self._cp_clean, {}, scalars=self.memo.steps[self._cp_clean])
        else:
            cp = self.store.borrow_latest()
            for name, vec in self.plugin.vectors.items():
                vec[:] = cp.vectors[name]
            self.cursor = self._stored_clean
        if self.workspace is not None:
            assert self._cp_matrix_deltas is not None
            self.workspace.restore_matrix_state(self._cp_matrix_deltas)
        else:
            assert cp.matrix is not None
            self.live.val[:] = cp.matrix.val
            self.live.colid[:] = cp.matrix.colid
            self.live.rowidx[:] = cp.matrix.rowidx
            # The snapshot carried its structure verdict (copy() and the
            # recycling save both preserve it); restoring the bytes
            # restores the verdict — typically re-arming the SpMxV fast
            # path a structure strike had disarmed.
            if cp.matrix._structure_clean:
                self.live.assume_clean_structure()
            else:
                self.live.mark_structure_dirty()
        # Back on the trajectory iff the checkpoint was — and, under a
        # non-reference backend, the stamp that routes its kernel came
        # back too (restore_matrix_state leaves it dirty whenever the
        # captured deltas name an index word, even a pristine one).
        self.clean = self._cp_clean is not None and (
            self.backend is None or self.live.structure_clean
        )
        if index_only and not self.clean:
            # T[k]'s bytes on another kernel: the solve goes on for real.
            self._load_trajectory(self._cp_clean)
        else:
            self.plugin.load_scalars(cp)

    def _charge_recovery(self, cost: float) -> None:
        self.time_units += cost
        self.breakdown.recovery += cost
        self.breakdown.wasted_work += self.uncommitted
        self.uncommitted = 0.0

    def rollback(self, reason: str) -> None:
        """Backward recovery to the last verified checkpoint.

        Escalates to :meth:`refresh_rollback` when the stuck probe
        says the checkpoint itself is tainted.  The charging order
        follows the plugin's :class:`RecoveryPolicy`.
        """
        pol = self.plugin.recovery
        if pol.charge_before_stuck_check:
            self.counters.rollbacks += 1
            self.stuck += 1
            self._charge_recovery(self.costs.t_rec)
            if self.stuck > self.stuck_threshold:
                self.refresh_rollback()
                return
        else:
            self.stuck += 1
            if self.stuck > self.stuck_threshold:
                self.refresh_rollback()
                return
            self.counters.rollbacks += 1
            self._charge_recovery(self.costs.t_rec)
        self._restore()
        self.policy.rolled_back()
        self.plugin.after_rollback()
        self.trace("rollback", reason=reason)

    def refresh_rollback(self) -> None:
        """Recovery from state the checkpoints cannot heal.

        The paper's recovery baseline — re-reading initial data —
        applies: the plugin restores the solution vector from the
        checkpoint, the matrix from the original input (reliable
        storage), and recomputes the residual reliably.  The refreshed
        (known-good) state is re-checkpointed so future rollbacks
        return here rather than to the tainted snapshot.
        """
        pol = self.plugin.recovery
        if pol.refresh_counts_rollback:
            self.counters.rollbacks += 1
        self.stuck = 0
        if pol.refresh_charges_restart:
            # One recovery plus one iteration (the residual SpMxV).
            self._charge_recovery(self.costs.t_rec + self.costs.t_iter)
        if self._cp_clean != self._stored_clean:
            # An index-only checkpoint becomes a stored one before the
            # plugin reads its iterate (BiCGstab's refresh keeps the
            # logical iteration count, so it survives the detour).
            k = self.plugin.iteration
            self._load_trajectory(self._cp_clean)
            self.store.save(
                self._cp_clean, vectors=self.plugin.vectors, scalars=self.plugin.scalars()
            )
            self._stored_clean = self._cp_clean
            self.plugin.iteration = k
        # Borrowed, not copied: the plugin only reads the checkpointed
        # iterate, and the snapshot below happens after that read.
        cp = self.store.borrow_latest()
        self.plugin.refresh(cp, self.a_view, self.b)
        # r is recomputed, not the recurrence's: off the trajectory for good.
        self.clean = False
        self.cursor = None
        # The refresh re-read the pristine matrix wholesale: the input's
        # structure verdict holds again.
        if self.workspace is not None:
            self.workspace.mark_live_pristine()
        elif self._live_clean0:
            self.live.assume_clean_structure()
        self.snapshot()
        if pol.refresh_notifies_policy:
            self.policy.rolled_back()
        self.plugin.after_rollback()
        self.trace("refresh-rollback")

    def maybe_checkpoint(self) -> None:
        """Take a checkpoint when the policy says the chunk is due."""
        if self.policy.chunk_verified():
            self.snapshot()
            self.counters.checkpoints += 1
            self.stuck = 0
            self.time_units += self.costs.t_cp
            self.breakdown.checkpoint += self.costs.t_cp
            self.breakdown.useful_work += self.uncommitted
            self.uncommitted = 0.0
            self.trace("checkpoint", time_units=self.time_units)

    def true_residual(self) -> float:
        """``‖b − A·x‖`` in reliable arithmetic against the clean A
        (on the clean trajectory: computed once per index)."""
        k = self.plugin.iteration
        if self.clean:
            norm = self.memo.true_residual.get(k)
            if norm is not None:
                return norm
            self.materialise()
        scratch = None if self.workspace is None else self.workspace.buffer(
            "spmv.scratch", self.a.nnz
        )
        true_r = self.b - spmv(
            self.a_view, self.plugin.vectors["x"], scratch=scratch, backend=self.backend
        )
        if self.backend is not None:
            norm = float(self.backend.norm2(true_r))
        else:
            norm = float(np.linalg.norm(true_r))
        if self.clean:
            self.memo.true_residual[k] = norm
        return norm

    def solution(self) -> np.ndarray:
        """A copy of the iterate the solve ends with; for a solve that
        ends on the clean trajectory, the memo's pinned terminal
        iterate (materialised and pinned by the first such solve)."""
        x = self.plugin.vectors["x"]
        if self.clean:
            k = self.plugin.iteration
            pinned = self.memo.terminal_x(k)
            if pinned is None:
                self.materialise()
                self.memo.pin_terminal(k, x)
            else:
                x = pinned
            if _clean_claim_hook is not None:
                _clean_claim_hook(self, {"x": x})
        return x.copy()

    def reliably_converged(self) -> bool:
        """Trustworthy convergence decision; an accepted check leaves
        its norm in :attr:`accepted_residual` for the solve's result."""
        norm = self.true_residual()
        if norm <= self.threshold:
            self.accepted_residual = norm
            return True
        return False


def run_protected(
    plugin: RecurrencePlugin,
    a: CSRMatrix,
    b: np.ndarray,
    config: SchemeConfig,
    *,
    alpha: float = 0.0,
    x0: "np.ndarray | None" = None,
    eps: float = 1e-8,
    maxiter: "int | None" = None,
    rng: "int | np.random.Generator | None" = None,
    max_time_units: "float | None" = None,
    final_check: bool = True,
    workspace: "SolveWorkspace | None" = None,
    backend: "object | None" = None,
    tracer: "Tracer | None" = None,
) -> SolveResult:
    """Run one recurrence plugin under silent-error injection.

    Parameters
    ----------
    plugin:
        A fresh (single-use) recurrence plugin.
    a:
        System matrix (never mutated; the engine works on a live copy).
    b:
        Right-hand side.
    config:
        Scheme, intervals and cost model.
    alpha:
        Fault-rate constant: strikes per iteration ~ Poisson(α)
        (``λ = α/M`` per word).  Zero disables injection.
    eps, maxiter, x0:
        As in :func:`repro.core.cg.cg`; ``maxiter`` caps *executed*
        iterations and defaults to ``20 n`` (faulty runs need headroom).
    rng:
        Seed or generator for the fault process.
    max_time_units:
        Optional bail-out on simulated time (pathological runs).
    final_check:
        Reliably re-verify the residual on apparent convergence and
        keep iterating if it is bogus (recommended; disable only to
        study undetected-error impact).
    workspace:
        Optional :class:`repro.perf.SolveWorkspace`.  When given, the
        live matrix, the per-iteration buffers and the checkpoint
        staging come from the workspace (reused across runs, restored
        between runs by strike-undo) and the ABFT metadata comes from
        the per-process checksum cache.  A solve from the zero initial
        guess also binds the workspace's clean-trajectory memo
        (:mod:`repro.perf.trajectory`): iterations whose outcome is
        already known — clean state, no strike drawn, inside the memo's
        frontier — are accounted, not executed
        (:meth:`EngineContext.step`).  On the reference backend this is
        bit-identical to the fresh path, which remains the oracle
        (``tests/test_perf_workspace.py``,
        ``tests/test_trajectory_memo.py``); under a non-reference
        backend the two can differ (ROADMAP item 3(c)).  One workspace
        must not be shared by concurrently running solves.
    backend:
        Kernel backend for every SpMxV of the run — a registered name
        (``"scipy"``, ``"dense"``), a
        :class:`repro.backends.KernelBackend` instance, or ``None``:
        the workspace's :attr:`~repro.perf.SolveWorkspace.backend` if
        one is set, else the reference kernels.  The reference backend
        is the raw-kernel fast path (bit-identical to the pre-backend
        engine); non-reference backends substitute only
        structure-clean products and route guarded ones back through
        the reference kernel, so detection semantics are unchanged.
    tracer:
        Optional :class:`repro.obs.Tracer` receiving the run's event
        stream (solve lifecycle, step outcomes, strikes, recoveries)
        and the per-iteration :meth:`~repro.obs.Tracer.iteration` hook.
        ``None`` and :class:`repro.obs.NullTracer` disable tracing at
        zero cost (a single ``is not None`` test per event site —
        gated ≤2% in ``benchmarks/overhead_gate.py``).  Tracing is pure
        observation: it consumes no RNG and charges no time, so
        attaching a sink cannot change a trajectory
        (``tests/test_obs_golden.py``).

    Returns
    -------
    SolveResult
    """
    plugin.check_scheme(config.scheme)
    if backend is None and workspace is not None:
        backend = workspace.backend
    backend = resolve_backend(backend)
    if backend is not None:
        # Pre-solve hook, before the wall clock: backends bind or
        # compile their kernels here (first-call warm-up never pollutes
        # per-task timing) and capacity-capped backends fail fast with
        # a structured error instead of dying mid-solve.
        prepare = getattr(backend, "prepare", None)
        if prepare is not None:
            prepare(a)
    wall_start = _time.perf_counter()
    tr = resolve_tracer(tracer)
    rng = as_generator(rng)
    n = a.nrows
    maxiter = 20 * n if maxiter is None else int(maxiter)
    scheme = config.scheme
    b = np.asarray(b, dtype=np.float64)

    if workspace is not None:
        # Reused live copy, restored to bit-equality with ``a`` by
        # un-writing exactly the previously tainted words.
        restores0 = workspace.live_restores
        live = workspace.acquire_live(a)
        a_view = workspace.source_view()
        if tr is not None:
            tr.emit(
                "workspace-acquire",
                0,
                live="restore" if workspace.live_restores > restores0 else "copy",
            )
    else:
        live = a.copy()  # live matrix: the injector corrupts this copy
        # One up-front structural check lets every SpMxV on the live
        # copy skip its defensive colid/rowidx guards until an index
        # array is actually struck (the guards would pass anyway, so
        # results are unchanged).  An invalid input matrix keeps the
        # seed's scan-and-wrap behaviour.
        a_view = a
        if structure_arrays_clean(live):
            live.assume_clean_structure()
            # Same stamp for products against the pristine input (the
            # reliable convergence checks and refreshes), carried by a
            # view sharing ``a``'s arrays so the caller's object is
            # never touched.
            a_view = CSRMatrix(a.val, a.colid, a.rowidx, a.shape, check=False)
            a_view.assume_clean_structure()
    ctx = EngineContext(plugin, a, live, b, config, workspace=workspace, backend=backend)
    ctx.a_view = a_view
    ctx.tracer = tr
    ctx._live_clean0 = live.structure_clean
    plugin.init_state(a, live, b, x0, config, workspace=workspace, backend=backend)
    ctx.threshold = cg_tolerance_threshold(
        a,
        b,
        plugin.vectors["r"],
        eps,
        norm1_a=workspace.source_norm1(a) if workspace is not None else None,
    )
    if (
        workspace is not None
        and x0 is None
        and hasattr(plugin, "advance_clean")
        # An iteration observer reads the vectors after every step:
        # the memo steps aside for that solve.
        and not (tr is not None and tr.observes_iterations)
        # Kernel routing is part of a non-reference trajectory.
        and (backend is None or live.structure_clean)
    ):
        ctx.memo = workspace.trajectory(plugin.name, backend, b)
        ctx.clean = True
        ctx.cursor = 0
        ctx.memo.record(0, plugin.scalars(), plugin.vectors)

    # ABFT metadata comes from the clean input matrix and lives in
    # reliable memory for the whole solve.
    if scheme.uses_abft:
        nchecks = 2 if scheme.corrects else 1
        if workspace is not None:
            if tr is not None:
                from repro.abft.checksums import checksums_cached

                cache_state = (
                    "hit"
                    if checksums_cached(a, nchecks=nchecks, backend=backend)
                    else "miss"
                )
            ctx.checksums = workspace.checksums(a, nchecks=nchecks, backend=backend)
            if tr is not None:
                tr.emit("abft-setup", 0, nchecks=nchecks, cache=cache_state)
        else:
            ctx.checksums = compute_checksums(a, nchecks=nchecks, backend=backend)
            if tr is not None:
                tr.emit("abft-setup", 0, nchecks=nchecks, cache="off")

    # Fault machinery: strikes are sampled centrally, then applied in
    # the operation window where each struck word is live.  The
    # registration order (matrix arrays, then the plugin's vectors in
    # declaration order) is part of the RNG contract.
    if alpha > 0:
        words = live.memory_words + n * len(plugin.vectors)
        ctx.injector = FaultInjector(FaultModel(alpha=alpha, memory_words=words), rng)
        if workspace is not None:
            ws = workspace

            def _ledger(name):
                return lambda position: ws.note_matrix_mutation(name, position)

            ctx.injector.register("val", live.val, on_strike=_ledger("val"))
            ctx.injector.register("colid", live.colid, on_strike=_ledger("colid"))
            ctx.injector.register("rowidx", live.rowidx, on_strike=_ledger("rowidx"))
        else:

            def _dirty(_position, _live=live):
                _live.mark_structure_dirty()

            ctx.injector.register("val", live.val)
            ctx.injector.register("colid", live.colid, on_strike=_dirty)
            ctx.injector.register("rowidx", live.rowidx, on_strike=_dirty)
        for name, vec in plugin.vectors.items():
            ctx.injector.register(name, vec)

    # Initial checkpoint = the initial data (the paper: the first frame
    # recovers "by reading initial data again", at the same cost).
    ctx.snapshot()

    if tr is not None:
        tr.emit(
            "solve-start",
            0,
            method=plugin.name,
            scheme=scheme.value,
            alpha=float(alpha),
            n=n,
            nnz=a.nnz,
            s=config.checkpoint_interval,
            d=config.verification_interval,
            backend=getattr(backend, "name", "custom") if backend is not None else "reference",
            workspace=workspace is not None,
        )

    executed = 0
    pol = plugin.recovery
    converged = plugin.initial_converged(ctx.threshold)
    while not converged and executed < maxiter:
        # Only the check of the step that ends the loop may be reused.
        ctx.accepted_residual = None
        if max_time_units is not None and ctx.time_units > max_time_units:
            break
        strikes = ctx.injector.sample_strikes() if ctx.injector is not None else []
        ctx.counters.faults_injected += len(strikes)
        executed += 1
        if tr is not None and strikes:
            for target, position, bit in strikes:
                tr.emit(
                    "strike",
                    plugin.iteration,
                    target=target,
                    position=int(position),
                    bit=int(bit),
                )

        outcome = ctx.step(strikes)
        if outcome.rolled_back:
            ctx.rollback(outcome.reason)
            converged = False
            if tr is not None:
                tr.emit(
                    "step",
                    plugin.iteration,
                    outcome="rollback",
                    reason=outcome.reason,
                    time_units=ctx.time_units,
                )
                tr.iteration(ctx)
            continue
        if outcome.converged:
            converged = True
        elif outcome.verified:
            ctx.maybe_checkpoint()

        if converged and final_check and not ctx.reliably_converged():
            ctx.counters.final_check_failures += 1
            if pol.final_check_counts_detection:
                ctx.counters.detections += 1
            if tr is not None:
                tr.emit("final-check", plugin.iteration, passed=False)
            if pol.final_check_refreshes:
                ctx.refresh_rollback()
            else:
                ctx.rollback("final-check")
            converged = False
        if tr is not None:
            tr.emit(
                "step",
                plugin.iteration,
                outcome="converged" if converged else "advanced",
                verified=bool(outcome.verified),
                time_units=ctx.time_units,
            )
            tr.iteration(ctx)

    # Work executed since the last checkpoint but never rolled back
    # counts as useful (the run ends with it in the solution).
    ctx.breakdown.useful_work += ctx.uncommitted

    # The loop's last reliable check, when it accepted this very x, is
    # the final residual; every other exit takes the explicit product.
    true_residual = ctx.accepted_residual
    if true_residual is None:
        true_residual = ctx.true_residual()
    result = SolveResult(
        x=ctx.solution(),
        converged=bool(true_residual <= ctx.threshold or (converged and not final_check)),
        iterations=int(plugin.iteration),
        iterations_executed=executed,
        time_units=ctx.time_units,
        wall_seconds=_time.perf_counter() - wall_start,
        residual_norm=true_residual,
        threshold=ctx.threshold,
        counters=ctx.counters,
        breakdown=ctx.breakdown,
        config=config,
    )

    # One batch of counter folds per solve — never per iteration, so
    # the metrics layer stays invisible on the hot path.
    bd, cnt = ctx.breakdown, ctx.counters
    m = METRICS
    m.inc("engine.solves")
    m.inc("engine.converged" if result.converged else "engine.diverged")
    m.inc("engine.iterations_executed", executed)
    m.inc("engine.iterations_virtual", ctx.virtual)
    m.inc("engine.iterations_replayed", ctx.replayed)
    m.inc("engine.products_guarded", ctx.guarded)
    m.inc("engine.faults_injected", cnt.faults_injected)
    m.inc("engine.rollbacks", cnt.rollbacks)
    m.inc("engine.corrections", cnt.total_corrections)
    m.inc("engine.detections", cnt.detections)
    m.inc("engine.checkpoints", cnt.checkpoints)
    m.inc("engine.time_units.useful", bd.useful_work)
    m.inc("engine.time_units.wasted", bd.wasted_work)
    m.inc("engine.time_units.verification", bd.verification)
    m.inc("engine.time_units.checkpoint", bd.checkpoint)
    m.inc("engine.time_units.recovery", bd.recovery)
    m.inc(
        "engine.backend."
        + (getattr(backend, "name", "custom") if backend is not None else "reference")
    )
    m.observe("engine.solve_wall_s", result.wall_seconds)

    if tr is not None:
        tr.emit(
            "solve-converge" if result.converged else "solve-diverge",
            plugin.iteration,
            executed=executed,
            time_units=ctx.time_units,
            residual=true_residual,
            useful=bd.useful_work,
            wasted=bd.wasted_work,
            verification=bd.verification,
            checkpoint=bd.checkpoint,
            recovery=bd.recovery,
            rollbacks=cnt.rollbacks,
            corrections=cnt.total_corrections,
            detections=cnt.detections,
            checkpoints=cnt.checkpoints,
            faults=cnt.faults_injected,
        )
    return result
