"""Conjugate Gradient as a recurrence plugin (all three schemes).

This is the paper's flagship solver on the resilience engine:

ONLINE-DETECTION (Chen [9], extended to checkpoint the matrix)
    Iterations run unprotected; every ``d`` iterations Chen's stability
    tests (orthogonality + recomputed residual) run, and every ``s``
    verified chunks a checkpoint is taken.  Any detection rolls back.

ABFT-DETECTION / ABFT-CORRECTION
    Every SpMxV runs through the engine's protected product (one or
    two checksum rows); vector kernels are TMR-voted; single errors
    are forward-corrected under ABFT-CORRECTION.

Strike routing follows Section 5.1: ``val``/``colid``/``rowidx``/``p``
strikes land before the product, ``q`` strikes corrupt its output, and
``r``/``x`` strikes land in the TMR-protected vector-kernel phase (in
ONLINE-DETECTION there is no TMR, so every strike lands directly in
memory and persists until a verification catches it).
"""

from __future__ import annotations

import math

import numpy as np

from repro.checkpoint.store import Checkpoint
from repro.core.methods import Scheme, SchemeConfig
from repro.core.stability import chen_verify
from repro.resilience.protocol import CG_RECOVERY, SPMV_PRE_TARGETS, StepOutcome
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import scratch_size, spmv_kernel

__all__ = ["CGPlugin"]


class CGPlugin:
    """The CG recurrence (paper Algorithm 1) behind the engine."""

    name = "cg"
    recovery = CG_RECOVERY

    def check_scheme(self, scheme: Scheme) -> None:
        """CG supports all three schemes."""

    def bind(
        self,
        a: CSRMatrix,
        live: CSRMatrix,
        b: np.ndarray,
        config: SchemeConfig,
        workspace,
        matvec=None,
    ) -> None:
        self.live = live
        self.b = b
        self.config = config
        self.workspace = workspace
        self.matvec = matvec
        # Workspace-backed vectors, storage reused across runs; the
        # ``tmp`` member holds the update's ``α·p`` / ``α·q``.
        self.x, self.r, self.p, self.q, self.tmp = workspace.vector_set(
            "cg", ("x", "r", "p", "q", "tmp"), a.nrows
        )
        #: The SpMxV products scratch every direct product shares.
        self.scratch = workspace.buffer("spmv.scratch", scratch_size(live.nnz))
        self.pq = 1.0  #: curvature ``pᵀAp`` of the step that produced this state
        self.iteration = 0
        self.iter_in_chunk = 0  #: ONLINE-DETECTION's position inside the chunk

    def init_state(
        self,
        a: CSRMatrix,
        live: CSRMatrix,
        b: np.ndarray,
        x0: "np.ndarray | None",
        config: SchemeConfig,
        workspace,
        matvec=None,
    ) -> None:
        self.bind(a, live, b, config, workspace, matvec)
        # Every entry is overwritten here, so nothing can leak from a
        # previous repetition.
        self.x[:] = 0.0
        if x0 is not None:
            self.x[:] = x0
        spmv_kernel(live, self.x, out=self.r, scratch=self.scratch, matvec=matvec)
        np.subtract(b, self.r, out=self.r)
        self.p[:] = self.r
        self.q[:] = 0.0
        self.rr = float(self.r.dot(self.r))

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        return {"x": self.x, "r": self.r, "p": self.p, "q": self.q}

    def scalars(self) -> dict[str, float]:
        return {"rr": self.rr, "pq": self.pq}

    def load_scalars(self, cp: Checkpoint) -> None:
        self.rr = float(cp.scalars["rr"])
        self.pq = float(cp.scalars["pq"])
        self.iteration = cp.iteration

    def initial_converged(self, threshold: float) -> bool:
        return bool(math.sqrt(self.rr) <= threshold)

    def after_rollback(self) -> None:
        self.iter_in_chunk = 0

    def refresh(self, cp: Checkpoint, a: CSRMatrix, b: np.ndarray) -> None:
        """Restart CG from the checkpointed iterate with reliable data."""
        self.x[:] = cp.vectors["x"]
        self.r[:] = self.b - spmv_kernel(a, self.x, scratch=self.scratch, matvec=self.matvec)
        self.p[:] = self.r
        self.q[:] = 0.0
        self.rr = float(self.r.dot(self.r))
        self.iteration = cp.iteration

    # ------------------------------------------------------------------
    # the recurrence, spelled once
    # ------------------------------------------------------------------
    def _update(self, pq: float) -> None:
        """``α → x, r → rr → β → p`` given the curvature ``pq = pᵀq``.

        Zero denominators yield NaN (ONLINE-DETECTION iterates on
        corrupted data and leaves the catch to Chen's tests; the ABFT
        step guards ``pq`` before calling).  The inner products use
        ``ndarray.dot``: the BLAS call of ``@``, bit for bit, with less
        dispatch around it.
        """
        alpha_step = self.rr / pq if pq != 0.0 else np.nan
        t = self.tmp
        np.multiply(alpha_step, self.p, out=t)
        self.x += t
        np.multiply(alpha_step, self.q, out=t)
        self.r -= t
        rr_new = float(self.r.dot(self.r))
        beta = rr_new / self.rr if self.rr != 0.0 else np.nan
        self.p *= beta
        self.p += self.r
        self.rr = rr_new
        self.pq = pq

    # ------------------------------------------------------------------
    # one iteration
    # ------------------------------------------------------------------
    def step(self, ctx, strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        if ctx.scheme.uses_abft:
            return self._abft_step(ctx, strikes)
        return self._online_step(ctx, strikes)

    def replay_step(self, ctx) -> None:
        """One strike-free step against the pristine matrix: trajectory
        arithmetic only — no charge, no verification, and no
        ``iter_in_chunk`` (bookkeeping, not trajectory state)."""
        ctx.clean_product(self.p, self.q)
        self._update(float(self.p.dot(self.q)))
        self.iteration += 1

    def advance_clean(self, ctx, scalars: "dict[str, float]") -> "StepOutcome | None":
        """Account the clean step to the state whose ``scalars()`` are
        given without executing it; ``None`` when its outcome does not
        follow from them (the engine then executes it)."""
        rr, pq = scalars["rr"], scalars["pq"]
        if ctx.scheme.uses_abft:
            if not math.isfinite(pq) or pq <= 0.0:
                return None  # the ABFT step's breakdown guard fires here
            self.rr, self.pq = rr, pq
            return self._abft_advanced(ctx)
        due, done = self._verification_due(rr, ctx)
        if due and not ctx.chen_known_to_pass(self.iteration + 1, not done):
            return None
        self.rr, self.pq = rr, pq
        return self._online_advanced(ctx, virtual=True)

    def _abft_step(self, ctx, strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        """One ABFT-protected iteration (product, TMR vote, update)."""
        if self._abft_iteration(ctx, strikes):
            return self._abft_advanced(ctx)
        ctx.charge_verified_iteration()
        ctx.counters.detections += 1
        return StepOutcome.rollback("abft")

    def _abft_advanced(self, ctx) -> StepOutcome:
        ctx.charge_verified_iteration()
        self.iteration += 1
        return StepOutcome.advanced(bool(math.sqrt(self.rr) <= ctx.threshold))

    def _abft_iteration(self, ctx, strikes: "list[tuple[str, int, int]]") -> bool:
        if strikes:
            pre = [s for s in strikes if s[0] in SPMV_PRE_TARGETS]
            post = [s for s in strikes if s[0] == "q"]
            vector_phase = [s for s in strikes if s[0] in ("r", "x")]
        else:  # the common iteration: nothing landed, skip the filters
            pre = post = vector_phase = strikes

        y = ctx.protected_product(self.p, pre, post)
        if y is None:
            return False
        self.q[:] = y

        # Vector-kernel phase under TMR; a double strike in one vector
        # defeats the vote and forces a rollback.
        if not ctx.tmr_vote(vector_phase, stop_on_failure=True):
            return False

        # Reliable CG update (TMR-voted kernels).
        pq = float(self.p.dot(self.q))
        if not math.isfinite(pq) or pq <= 0.0:
            # Curvature corrupted below detection thresholds; treat as a
            # detected error rather than dividing by garbage.
            ctx.trace("breakdown", what="pq", value=pq)
            return False
        self._update(pq)
        return True

    def _online_step(self, ctx, strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        """One unprotected iteration: all strikes land directly in memory."""
        if ctx.injector is not None:
            for s in strikes:
                ctx.injector.apply_strike(self.iteration, s)
        spmv_kernel(self.live, self.p, out=self.q, scratch=self.scratch, matvec=self.matvec)
        self._update(float(self.p.dot(self.q)))
        return self._online_advanced(ctx)

    def _verification_due(self, rr: float, ctx) -> "tuple[bool, bool]":
        """Whether the step arriving at ``rr`` ends at a verification
        point, and whether ``rr`` says converged (which forces one)."""
        done = bool(math.isfinite(rr) and math.sqrt(rr) <= ctx.threshold)
        return self.iter_in_chunk + 1 >= self.config.verification_interval or done, done

    def _online_advanced(self, ctx, *, virtual: bool = False) -> StepOutcome:
        """ONLINE-DETECTION's bookkeeping once ``rr`` is the new state's:
        charge, chunk position and, at a verification point, Chen's
        tests — a virtual step is only taken where they are known to
        pass (:meth:`advance_clean`)."""
        due, rr_says_done = self._verification_due(self.rr, ctx)
        ctx.charge_iteration()
        self.iteration += 1
        self.iter_in_chunk += 1
        if not due:
            return StepOutcome.advanced(False, verified=False)
        passed = virtual or self._chen_verify(ctx, check_orthogonality=not rr_says_done)
        ctx.charge_verification(ctx.costs.t_verif_online)
        self.iter_in_chunk = 0
        ctx.trace("chen-verify", passed=passed)
        if not passed:
            ctx.counters.detections += 1
            return StepOutcome.rollback("chen")
        return StepOutcome.advanced(rr_says_done)

    def _chen_verify(self, ctx, *, check_orthogonality: bool) -> bool:
        report = chen_verify(
            self.live,
            self.b,
            self.x,
            self.r,
            self.p,
            self.q,
            check_orthogonality=check_orthogonality,
            matvec=self.matvec,
            scratch=self.scratch,
        )
        ctx.note_chen(self.iteration, check_orthogonality, bool(report.passed))
        return bool(report.passed)
