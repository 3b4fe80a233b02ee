"""Solver-agnostic resilience engine.

One engine executes any recurrence plugin under the paper's three
protection schemes.  The engine owns every solver-independent piece of
the fault-tolerance machinery that the seed tree used to duplicate in
``core/ft_cg.py`` and ``core/ft_krylov.py``:

- the Poisson strike sampler and the live (corruptible) matrix copy,
  drawn from a :class:`~repro.perf.SolveWorkspace` (the caller's, or a
  private one per solve);
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

import math
import time as _time
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.abft.spmv import SpmvStatus, verified_spmv
from repro.backends import kernel_matvec
from repro.checkpoint.policy import PeriodicCheckpointPolicy
from repro.checkpoint.store import Checkpoint, CheckpointStore
from repro.core.methods import SchemeConfig
from repro.faults.injector import FaultInjector, FaultModel, FaultTargets
from repro.obs.metrics import METRICS
from repro.obs.tracer import Tracer, resolve_tracer
from repro.perf.workspace import SolveWorkspace
from repro.resilience.accounting import RecoveryCounters, SolveResult, TimeBreakdown
from repro.resilience.protocol import RecurrencePlugin, StepOutcome
from repro.sparse.csr import CSRMatrix
from repro.sparse.norms import norm2
from repro.sparse.spmv import scratch_size, spmv_kernel
from repro.util.rng import as_generator
from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.trajectory import TrajectoryMemo

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
#: sets it from a fixture to compare against an independent memo-free,
#: strike-free run.
_clean_claim_hook: "Callable[[EngineContext, dict[str, np.ndarray]], None] | None" = None


def _tolerance_threshold(eps: float, norm1_a: float, r0_norm: float, b_norm: float) -> float:
    """Algorithm 1's stopping threshold ``ε (‖A‖·‖r₀‖ + ‖b‖)`` from its
    three norms (``‖A‖`` is the 1-norm, exact for CSR)."""
    return eps * (norm1_a * r0_norm + b_norm)


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
        workspace: SolveWorkspace,
        matvec: "Callable | None" = None,
    ) -> None:
        self.plugin = plugin
        #: The run's kernel (:func:`repro.backends.kernel_matvec`:
        #: ``None`` = ``reference``) for every SpMxV the engine or its
        #: plugins issue.
        self.matvec = matvec
        self.a = a  #: pristine input matrix (reliable storage)
        #: ``a`` through the workspace's flag-stamped view (same bytes,
        #: own structure stamp) so reliable products skip the SpMxV guards.
        self.a_view = workspace.source_view()
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
        # Recycling is safe here because the store is engine-private:
        # borrowed checkpoints are only read before the next save.
        self.store = CheckpointStore(keep=1, recycle=True)
        #: Matrix deviations from ``a`` at the latest checkpoint (the
        #: workspace's tainted words, not an O(nnz) matrix copy).
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
        #: iteration is executed (a private workspace, ``x0`` given, an
        #: iteration observer attached, or a plugin without the
        #: ``advance_clean``/``replay_step`` pair).
        self.memo: "TrajectoryMemo | None" = None
        #: The logical state is ``T[plugin.iteration]`` and the live
        #: matrix is byte-equal to its source (on ``scipy``: and carries
        #: the structure stamp, which routes the kernel).  Only ever
        #: true with a memo bound.
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

        result = verified_spmv(
            self.live,
            x_in,
            self.checksums,
            self.scheme.corrects,
            hook,
            workspace=self.workspace,
            # The workspace only re-arms the live stamp on verified
            # byte-equality with the checksum source, so the stamp may
            # stand in for the exact row-pointer test.
            trust_structure_stamp=True,
            matvec=self.matvec,
        )
        if not self.live.structure_clean:  # before any re-arm below
            self.guarded += 1
        if result.status is SpmvStatus.OK:  # verified clean: nothing to book
            return result.y
        corr = result.correction
        if (
            corr is not None
            and getattr(corr, "corrected", False)
            and corr.kind in _MATRIX_CORRECTION_KINDS
        ):
            # The decoder patched a matrix word in place (even an
            # UNCORRECTABLE outcome may carry a patch that re-verify
            # rejected): it must enter the strike-undo ledger.
            self.workspace.note_matrix_mutation(corr.kind, corr.position)
            if corr.kind != "val" and result.status is SpmvStatus.CORRECTED:
                # Forward repair restored the exact index word and
                # re-verified clean; nothing else will re-arm the
                # fast path (correction never rolls back).
                self.workspace.reverify_structure()
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
        # stored checkpoint (if any: a solve that started on the memo's
        # origin may have none) is a clean one at or below it (a
        # tainted save ends every clean stretch of the solve for good).
        stored = -1 if self._stored_clean is None else self._stored_clean
        start = max(here, stored, snap)
        if start != here:
            source = memo.vectors_at(snap) if start == snap else self.store.latest.vectors
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
        scratch = self.workspace.buffer("spmv.scratch", scratch_size(self.a.nnz))
        return spmv_kernel(self.a_view, x, out, scratch, self.matvec)

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

        The matrix member of the checkpoint is the O(#faults) deviation
        record kept by the workspace, not an O(nnz) array copy.  The
        checkpoint of a clean state whose vectors are not materialised
        is stored as its trajectory index alone.
        """
        self._cp_matrix_deltas = self.workspace.capture_matrix_state()
        k = self.plugin.iteration
        self._cp_clean = k if self.clean else None
        if self.clean and self.cursor != k:
            # A clean state is its index: the vectors are the memo's to
            # rebuild, only the matrix member (the deltas above) is kept.
            return
        self._stored_clean = self._cp_clean
        self.store.save(
            self.plugin.iteration, vectors=self.plugin.vectors, scalars=self.plugin.scalars()
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
        self.workspace.restore_matrix_state(self._cp_matrix_deltas)
        # Back on the trajectory iff the checkpoint was — and, on
        # ``scipy``, the stamp that routes its kernel came back too
        # (restore_matrix_state leaves it dirty whenever the captured
        # deltas name an index word, even a pristine one).
        self.clean = self._cp_clean is not None and (
            self.matvec is None or self.live.structure_clean
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
        self.workspace.mark_live_pristine()
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
        scratch = self.workspace.buffer("spmv.scratch", scratch_size(self.a.nnz))
        true_r = self.b - spmv_kernel(
            self.a_view, self.plugin.vectors["x"], scratch=scratch, matvec=self.matvec
        )
        norm = math.sqrt(float(true_r @ true_r))
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


def _fault_targets(
    workspace: SolveWorkspace, method: str, live: CSRMatrix, vectors: "dict[str, np.ndarray]"
) -> FaultTargets:
    """The strike table of a solve: the live matrix arrays (their
    strikes enter the workspace's strike-undo ledger), then the plugin's
    vectors in declaration order — the registration order is part of
    the RNG contract.  Built once per workspace binding and kept while
    the solves of that binding hand in the same array objects."""
    wanted = [("val", live.val), ("colid", live.colid), ("rowidx", live.rowidx)]
    wanted.extend(vectors.items())
    key = ("fault-targets", method)
    table = workspace.bound.get(key)
    if table is None or any(table.arrays.get(name) is not arr for name, arr in wanted):
        table = FaultTargets()
        for name, arr in wanted:
            ledger = None
            if name in _MATRIX_CORRECTION_KINDS:
                ledger = partial(workspace.note_matrix_mutation, name)
            table.register(name, arr, on_strike=ledger)
        workspace.bound[key] = table
    return table


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
    backend: "str | object | None" = None,
    tracer: "Tracer | None" = None,
) -> SolveResult:
    """Run one recurrence plugin under silent-error injection.

    Parameters
    ----------
    plugin:
        A fresh (single-use) recurrence plugin.
    a:
        System matrix (never mutated; the engine works on the
        workspace's live copy).
    b:
        Right-hand side.
    config:
        Scheme, intervals and cost model.
    alpha:
        Fault-rate constant: strikes per iteration ~ Poisson(α)
        (``λ = α/M`` per word).  Zero disables injection.
    eps:
        The ε of Algorithm 1's stopping criterion ``‖r‖ ≤ ε (‖A‖₁·‖r₀‖
        + ‖b‖)``; finite and positive, else :class:`ValueError`.
    maxiter:
        Cap on *executed* iterations, a whole number at least 1 (``5``
        or ``5.0``); defaults to ``20 n`` (faulty runs need headroom).
    x0:
        Initial guess (the zero vector when ``None``).
    rng:
        Seed or generator for the fault process.
    max_time_units:
        Optional bail-out on simulated time (pathological runs).
    final_check:
        Reliably re-verify the residual on apparent convergence and
        keep iterating if it is bogus (recommended; disable only to
        study undetected-error impact).
    workspace:
        The :class:`repro.perf.SolveWorkspace` the live matrix, the
        per-iteration buffers and the delta checkpoints come from
        (reused across runs, restored between runs by strike-undo);
        ``None`` runs the solve on a
        :meth:`~repro.perf.SolveWorkspace.private` one.  A caller's
        workspace also supplies the per-process checksum cache and,
        for a solve from the zero initial guess, its clean-trajectory
        memo (:mod:`repro.perf.trajectory`): iterations whose outcome
        is already known — clean state, no strike drawn, inside the
        memo's frontier — are accounted, not executed
        (:meth:`EngineContext.step`).  The memo changes no result: a
        private workspace per solve is its oracle
        (``tests/test_perf_workspace.py``,
        ``tests/test_trajectory_memo.py``).  One workspace must not be
        shared by concurrently running solves.
    backend:
        The kernel of every SpMxV of the run (:mod:`repro.backends`):
        ``"reference"`` (or ``None``, the default) or ``"scipy"``, by
        name or as the object of :func:`repro.backends.get_backend`.
        ``"scipy"`` computes only structure-clean products with SciPy's
        kernel; a struck product takes the wild-read kernel on both,
        so detection semantics are unchanged.
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
    if not math.isfinite(check_positive("eps", eps)):
        raise ValueError(f"eps must be finite, got {eps!r}")
    if maxiter is not None and not (1 <= maxiter < math.inf and maxiter == int(maxiter)):
        raise ValueError(f"maxiter must be >= 1, finite and whole, got {maxiter!r}")
    # The solve owns the floating-point error state: strikes overflow
    # the kernel, the checksum algebra, the decoder and Chen's tests,
    # and the inf/NaN they leave is what detection reads.  One
    # ``errstate`` here stands for all of them (docs/DESIGN.md §4).
    with np.errstate(all="ignore"):
        plugin.check_scheme(config.scheme)
        workspace = workspace or SolveWorkspace.private()
        # Before the wall clock: the first ``scipy`` solve of a process
        # binds SciPy's kernel here, outside per-task timing.
        matvec = kernel_matvec(backend)
        kernel = "reference" if matvec is None else "scipy"
        wall_start = _time.perf_counter()
        tr = resolve_tracer(tracer)
        rng = as_generator(rng)
        n = a.nrows
        maxiter = 20 * n if maxiter is None else int(maxiter)
        scheme = config.scheme
        b = np.asarray(b, dtype=np.float64)

        # The live matrix the injector corrupts: a copy of ``a`` on first
        # acquisition, else the reused one, restored to bit-equality with
        # ``a`` by un-writing exactly the previously tainted words.
        restores0 = workspace.live_restores
        live = workspace.acquire_live(a)
        if tr is not None:
            tr.emit(
                "workspace-acquire",
                0,
                live="restore" if workspace.live_restores > restores0 else "copy",
            )
        ctx = EngineContext(plugin, a, live, b, config, workspace=workspace, matvec=matvec)
        ctx.tracer = tr
        memo = None
        if (
            workspace.shared
            and x0 is None
            # An iteration observer reads the vectors after every step:
            # the memo steps aside for that solve.
            and not (tr is not None and tr.observes_iterations)
            # Kernel routing is part of a ``scipy`` trajectory.
            and (matvec is None or live.structure_clean)
        ):
            memo = workspace.trajectory(plugin.name, matvec, b)
        if memo is not None and memo.origin is not None:
            # T[0] is known: start on it with the vectors unwritten
            # (``cursor`` None); the first strike or check that needs
            # them materialises them from the memo's origin.
            plugin.bind(a, live, b, config, workspace, matvec)
            plugin.load_scalars(Checkpoint(0, {}, scalars=memo.steps[0]))
            r0_norm, b_norm = memo.origin_norms
        else:
            plugin.init_state(a, live, b, x0, config, workspace=workspace, matvec=matvec)
            r0_norm, b_norm = norm2(plugin.vectors["r"]), norm2(b)
            if memo is not None:
                memo.record_origin(plugin.scalars(), plugin.vectors, (r0_norm, b_norm))
                ctx.cursor = 0
        ctx.threshold = _tolerance_threshold(eps, workspace.source_norm1(a), r0_norm, b_norm)
        if memo is not None:
            ctx.memo = memo
            ctx.clean = True

        # ABFT metadata comes from the clean input matrix and lives in
        # reliable memory for the whole solve.
        if scheme.uses_abft:
            nchecks = 2 if scheme.corrects else 1
            if tr is not None:
                from repro.abft.checksums import checksums_cached

                if not workspace.shared:
                    cache_state = "off"
                elif checksums_cached(a, nchecks=nchecks):
                    cache_state = "hit"
                else:
                    cache_state = "miss"
            ctx.checksums = workspace.checksums(a, nchecks=nchecks)
            if tr is not None:
                tr.emit("abft-setup", 0, nchecks=nchecks, cache=cache_state)

        # Fault machinery: strikes are sampled centrally, then applied in
        # the operation window where each struck word is live.  The
        # registration order (matrix arrays, then the plugin's vectors in
        # declaration order) is part of the RNG contract.
        if alpha > 0:
            vectors = plugin.vectors
            words = live.memory_words + n * len(vectors)
            ctx.injector = FaultInjector(
                FaultModel(alpha=alpha, memory_words=words),
                rng,
                targets=_fault_targets(workspace, plugin.name, live, vectors),
            )

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
                backend=kernel,
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
        METRICS.inc_many(
            (
                ("engine.solves", 1),
                ("engine.converged" if result.converged else "engine.diverged", 1),
                ("engine.iterations_executed", executed),
                ("engine.iterations_virtual", ctx.virtual),
                ("engine.iterations_replayed", ctx.replayed),
                ("engine.products_guarded", ctx.guarded),
                ("engine.faults_injected", cnt.faults_injected),
                ("engine.rollbacks", cnt.rollbacks),
                ("engine.corrections", cnt.total_corrections),
                ("engine.detections", cnt.detections),
                ("engine.checkpoints", cnt.checkpoints),
                ("engine.time_units.useful", bd.useful_work),
                ("engine.time_units.wasted", bd.wasted_work),
                ("engine.time_units.verification", bd.verification),
                ("engine.time_units.checkpoint", bd.checkpoint),
                ("engine.time_units.recovery", bd.recovery),
                ("engine.backend." + kernel, 1),
            )
        )
        METRICS.observe("engine.solve_wall_s", result.wall_seconds)

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
