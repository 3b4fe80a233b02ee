"""Frozen pre-refactor FT-CG driver (PR-1 tree), kept verbatim for
``benchmarks/bench_resilience.py`` and ``benchmarks/bench_hotpath.py``:
the engine-based ``run_ft_cg`` is benchmarked against this monolith to
confirm the resilience-engine refactor added no overhead, and the
workspace hot path against the full seed stack to measure what it
bought.  Do not modernize this file — its value is being the exact code
the golden trajectories were captured from.  The SpMxV/ABFT kernels are
likewise the *frozen seed* versions (``benchmarks/_seed_kernels.py``):
the zero-copy-hot-path PR made the live kernels themselves faster, so
importing them here would silently flatter the baseline.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.abft.checksums import compute_checksums
from benchmarks._seed_kernels import (
    seed_spmv as spmv,
    seed_protected_spmv as protected_spmv,
    SpmvStatus,
)
from repro.checkpoint.store import CheckpointStore
from repro.checkpoint.policy import PeriodicCheckpointPolicy
from repro.core.cg import cg_tolerance_threshold
from repro.resilience.accounting import SolveResult as FTCGResult, RecoveryCounters, TimeBreakdown
from repro.core.methods import SchemeConfig
from repro.core.stability import chen_verify
from repro.faults.bitflip import flip_bits_array
from repro.faults.injector import FaultInjector, FaultModel
from repro.faults.record import FaultRecord
from repro.util.rng import as_generator

__all__ = ["run_ft_cg_legacy"]


class EventLog(list):
    """The frozen driver's own recovery-event list (``(kind, iteration,
    payload)`` tuples); nothing compares it."""

    def emit(self, kind: str, iteration: int, **payload) -> None:
        self.append((kind, iteration, payload))

#: Targets whose strikes land in the protected-SpMxV window.
_SPMV_PRE_TARGETS = frozenset({"val", "colid", "rowidx", "p"})


class _LiveState:
    """The corruptible solver state plus restore plumbing."""

    def __init__(self, a: CSRMatrix, b: np.ndarray, x0: np.ndarray | None) -> None:
        n = a.nrows
        self.a = a.copy()  # live matrix: the injector corrupts this copy
        self.b = b  # the right-hand side is considered reliable input data
        self.x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
        self.r = b - spmv(self.a, self.x)
        self.p = self.r.copy()
        self.q = np.zeros(n)
        self.rr = float(self.r @ self.r)
        self.iteration = 0

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        return {"x": self.x, "r": self.r, "p": self.p, "q": self.q}

    @property
    def memory_words(self) -> int:
        return self.a.memory_words + 4 * self.x.size

    def snapshot_into(self, store: CheckpointStore) -> None:
        store.save(
            self.iteration,
            vectors={"x": self.x, "r": self.r, "p": self.p, "q": self.q},
            matrix=self.a,
            scalars={"rr": self.rr},
        )

    def restore_from(self, store: CheckpointStore) -> None:
        """Copy checkpoint data back **into** the live arrays.

        In-place restore is essential: the fault injector holds
        references to these arrays, so rebinding would silently
        decouple injection from the solver state.
        """
        cp = store.restore()
        self.x[:] = cp.vectors["x"]
        self.r[:] = cp.vectors["r"]
        self.p[:] = cp.vectors["p"]
        self.q[:] = cp.vectors["q"]
        assert cp.matrix is not None
        self.a.val[:] = cp.matrix.val
        self.a.colid[:] = cp.matrix.colid
        self.a.rowidx[:] = cp.matrix.rowidx
        self.rr = float(cp.scalars["rr"])
        self.iteration = cp.iteration


def run_ft_cg_legacy(
    a: CSRMatrix,
    b: np.ndarray,
    config: SchemeConfig,
    *,
    alpha: float = 0.0,
    x0: np.ndarray | None = None,
    eps: float = 1e-8,
    maxiter: int | None = None,
    rng: "int | np.random.Generator | None" = None,
    max_time_units: float | None = None,
    event_log: EventLog | None = None,
    final_check: bool = True,
) -> FTCGResult:
    """Run fault-tolerant CG under silent-error injection.

    Parameters
    ----------
    a:
        SPD matrix (never mutated; the solver works on a live copy).
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
    event_log:
        Optional :class:`EventLog` receiving recovery events.
    final_check:
        Reliably re-verify the residual on apparent convergence and
        keep iterating if it is bogus (recommended; disable only to
        study undetected-error impact).

    Returns
    -------
    FTCGResult
    """
    wall_start = _time.perf_counter()
    rng = as_generator(rng)
    log = event_log if event_log is not None else EventLog()
    n = a.nrows
    maxiter = 20 * n if maxiter is None else int(maxiter)
    costs = config.costs
    scheme = config.scheme

    state = _LiveState(a, np.asarray(b, dtype=np.float64), x0)
    threshold = cg_tolerance_threshold(a, state.b, state.r, eps)

    # ABFT metadata comes from the clean input matrix and lives in
    # reliable memory for the whole solve.
    checksums = None
    if scheme.uses_abft:
        checksums = compute_checksums(a, nchecks=2 if scheme.corrects else 1)

    # Fault machinery: strikes are sampled centrally, then applied in
    # the operation window where each struck word is live.
    model = FaultModel(alpha=alpha, memory_words=state.memory_words) if alpha > 0 else None
    injector: FaultInjector | None = None
    if model is not None:
        injector = FaultInjector(model, rng)
        injector.register("val", state.a.val)
        injector.register("colid", state.a.colid)
        injector.register("rowidx", state.a.rowidx)
        for name, vec in state.vectors.items():
            injector.register(name, vec)

    store = CheckpointStore(keep=1)
    policy = PeriodicCheckpointPolicy(config.checkpoint_interval)
    counters = RecoveryCounters()

    # Initial checkpoint = the initial data (the paper: the first frame
    # recovers "by reading initial data again", at the same cost).
    state.snapshot_into(store)

    time_units = 0.0
    executed = 0
    iter_in_chunk = 0
    rollbacks_since_progress = 0
    breakdown = TimeBreakdown()
    uncommitted_work = 0.0  # iteration time not yet saved by a checkpoint
    # A rollback loop longer than this means the checkpoint itself is
    # tainted (e.g. a matrix corruption that slipped verification while
    # its column's input entry was ≈ 0): fall back to re-reading the
    # initial data, the paper's recovery of last resort.
    stuck_threshold = max(8, 2 * config.checkpoint_interval)

    def rollback(reason: str) -> None:
        nonlocal time_units, iter_in_chunk, rollbacks_since_progress, uncommitted_work
        rollbacks_since_progress += 1
        if rollbacks_since_progress > stuck_threshold:
            refresh_rollback()
            return
        counters.rollbacks += 1
        time_units += costs.t_rec
        breakdown.recovery += costs.t_rec
        breakdown.wasted_work += uncommitted_work
        uncommitted_work = 0.0
        state.restore_from(store)
        policy.rolled_back()
        iter_in_chunk = 0
        log.emit("rollback", state.iteration, reason=reason)

    def refresh_rollback() -> None:
        """Recovery from state the checkpoints cannot heal.

        A sub-tolerance matrix corruption (a low-mantissa flip below the
        Theorem-2 threshold) can slip into a checkpoint and then make
        the final residual check fail forever.  The paper's recovery
        baseline — re-reading initial data — applies: restore the
        solution vector from the checkpoint, the matrix from the
        original input (reliable storage), and *recompute* the residual
        reliably, restarting CG from the checkpointed iterate.  Costs
        one recovery plus one iteration (the residual SpMxV).
        """
        nonlocal time_units, iter_in_chunk, rollbacks_since_progress, uncommitted_work
        counters.rollbacks += 1
        rollbacks_since_progress = 0
        time_units += costs.t_rec + costs.t_iter
        breakdown.recovery += costs.t_rec + costs.t_iter
        breakdown.wasted_work += uncommitted_work
        uncommitted_work = 0.0
        cp = store.restore()
        state.x[:] = cp.vectors["x"]
        state.a.val[:] = a.val
        state.a.colid[:] = a.colid
        state.a.rowidx[:] = a.rowidx
        state.r[:] = state.b - spmv(a, state.x)
        state.p[:] = state.r
        state.q[:] = 0.0
        state.rr = float(state.r @ state.r)
        state.iteration = cp.iteration
        # Re-checkpoint the refreshed (known-good) state so future
        # rollbacks return here rather than to the tainted snapshot.
        state.snapshot_into(store)
        policy.rolled_back()
        iter_in_chunk = 0
        log.emit("refresh-rollback", state.iteration)

    def maybe_checkpoint() -> None:
        nonlocal time_units, rollbacks_since_progress, uncommitted_work
        if policy.chunk_verified():
            state.snapshot_into(store)
            counters.checkpoints += 1
            rollbacks_since_progress = 0
            time_units += costs.t_cp
            breakdown.checkpoint += costs.t_cp
            breakdown.useful_work += uncommitted_work
            uncommitted_work = 0.0
            log.emit("checkpoint", state.iteration)

    def reliably_converged() -> bool:
        """Trustworthy convergence decision (reliable arithmetic, clean A)."""
        true_r = state.b - spmv(a, state.x)
        return float(np.linalg.norm(true_r)) <= threshold

    converged = bool(np.sqrt(state.rr) <= threshold)
    while not converged and executed < maxiter:
        if max_time_units is not None and time_units > max_time_units:
            break
        strikes = injector.sample_strikes() if injector is not None else []
        counters.faults_injected += len(strikes)
        executed += 1

        if scheme.uses_abft:
            ok = _abft_iteration(state, config, checksums, injector, strikes, counters, log)
            time_units += costs.t_iter + config.verification_cost
            uncommitted_work += costs.t_iter
            breakdown.verification += config.verification_cost
            counters.verifications += 1
            if not ok:
                counters.detections += 1
                rollback("abft")
                converged = False
                continue
            state.iteration += 1
            converged = bool(np.sqrt(state.rr) <= threshold)
            if not converged:
                maybe_checkpoint()
        else:
            _online_iteration(state, injector, strikes)
            time_units += costs.t_iter
            uncommitted_work += costs.t_iter
            state.iteration += 1
            iter_in_chunk += 1
            rr_says_done = bool(np.isfinite(state.rr) and np.sqrt(state.rr) <= threshold)
            if iter_in_chunk >= config.verification_interval or rr_says_done:
                report = chen_verify(
                    state.a,
                    state.b,
                    state.x,
                    state.r,
                    state.p,
                    state.q,
                    check_orthogonality=not rr_says_done,
                )
                time_units += costs.t_verif_online
                breakdown.verification += costs.t_verif_online
                counters.verifications += 1
                iter_in_chunk = 0
                if not report.passed:
                    counters.detections += 1
                    rollback("chen")
                    continue
                converged = rr_says_done
                if not converged:
                    maybe_checkpoint()

        if converged and final_check and not reliably_converged():
            counters.final_check_failures += 1
            counters.detections += 1
            refresh_rollback()
            converged = False

    # Work executed since the last checkpoint but never rolled back
    # counts as useful (the run ends with it in the solution).
    breakdown.useful_work += uncommitted_work

    true_residual = float(np.linalg.norm(state.b - spmv(a, state.x)))
    return FTCGResult(
        x=state.x.copy(),
        converged=bool(true_residual <= threshold or (converged and not final_check)),
        iterations=state.iteration,
        iterations_executed=executed,
        time_units=time_units,
        wall_seconds=_time.perf_counter() - wall_start,
        residual_norm=true_residual,
        threshold=threshold,
        counters=counters,
        breakdown=breakdown,
        config=config,
    )


def _abft_iteration(
    state: _LiveState,
    config: SchemeConfig,
    checksums,
    injector: FaultInjector | None,
    strikes: list[tuple[str, int, int]],
    counters: RecoveryCounters,
    log: EventLog,
) -> bool:
    """One ABFT-protected iteration; returns False when a rollback is needed."""
    pre = [s for s in strikes if s[0] in _SPMV_PRE_TARGETS]
    post = [s for s in strikes if s[0] == "q"]
    vector_phase = [s for s in strikes if s[0] in ("r", "x")]

    def hook(stage: str, _a, _x, y) -> None:
        if injector is None:
            return
        if stage == "pre":
            for s in pre:
                injector.apply_strike(state.iteration, s)
        elif stage == "post" and y is not None:
            # q-window strikes corrupt the freshly computed product.
            for name, posn, bit in post:
                old = y[posn]
                flip_bits_array(y, np.array([posn]), np.array([bit]))
                injector.records.append(
                    FaultRecord(state.iteration, "q", posn, bit, float(old), float(y[posn]))
                )

    result = protected_spmv(
        state.a,
        state.p,
        checksums,
        correct=config.scheme.corrects,
        fault_hook=hook,
    )
    if result.status is SpmvStatus.CORRECTED and result.correction is not None:
        counters.record_correction(result.correction.kind)
        log.emit(
            "correction",
            state.iteration,
            what=result.correction.kind,
            detail=result.correction.detail,
        )
    if not result.trusted:
        return False

    state.q[:] = result.y

    # Vector-kernel phase under TMR.  A single strike per vector is
    # out-voted; a double strike in one vector defeats the vote.
    if vector_phase and injector is not None:
        by_target: dict[str, list[tuple[str, int, int]]] = {}
        for s in vector_phase:
            by_target.setdefault(s[0], []).append(s)
        for target, hits in by_target.items():
            if len(hits) >= 2:
                for s in hits:  # the corruption happened; TMR failed to mask it
                    injector.apply_strike(state.iteration, s)
                counters.tmr_detections += 1
                log.emit("tmr-detection", state.iteration, target=target, strikes=len(hits))
                return False
            rec = injector.apply_strike(state.iteration, hits[0])
            injector.revert(rec)
            counters.tmr_corrections += 1
            log.emit("tmr-correction", state.iteration, target=target)

    # Reliable CG update (TMR-voted kernels).
    pq = float(state.p @ state.q)
    if not np.isfinite(pq) or pq <= 0.0:
        # Curvature corrupted below detection thresholds; treat as a
        # detected error rather than dividing by garbage.
        log.emit("breakdown", state.iteration, pq=pq)
        return False
    alpha_step = state.rr / pq
    state.x += alpha_step * state.p
    state.r -= alpha_step * state.q
    rr_new = float(state.r @ state.r)
    beta = rr_new / state.rr
    state.p *= beta
    state.p += state.r
    state.rr = rr_new
    return True


def _online_iteration(
    state: _LiveState,
    injector: FaultInjector | None,
    strikes: list[tuple[str, int, int]],
) -> None:
    """One unprotected iteration: all strikes land directly in memory."""
    if injector is not None:
        for s in strikes:
            injector.apply_strike(state.iteration, s)
    with np.errstate(all="ignore"):
        state.q[:] = spmv(state.a, state.p)
        pq = float(state.p @ state.q)
        alpha_step = state.rr / pq if pq != 0.0 else np.nan
        state.x += alpha_step * state.p
        state.r -= alpha_step * state.q
        rr_new = float(state.r @ state.r)
        beta = rr_new / state.rr if state.rr != 0.0 else np.nan
        state.p *= beta
        state.p += state.r
        state.rr = rr_new
