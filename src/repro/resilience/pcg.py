"""Jacobi-preconditioned CG as a recurrence plugin (FT-PCG).

The paper's Section 6 singles out diagonal (Jacobi) preconditioners as
attractive because the preconditioner application is itself a
(diagonal) SpMxV the same ABFT machinery can protect.  This plugin is
the first solver added *on* the resilience engine rather than as
another monolithic driver — the proof that the solver axis is open:

- the ``A·p`` product runs through the engine's protected SpMxV
  (strikes on ``val``/``colid``/``rowidx``/``p`` land in its window,
  ``q`` strikes corrupt its output);
- the Jacobi diagonal ``M⁻¹ = diag(A)⁻¹`` is extracted once from the
  *clean* input matrix and lives in reliable memory for the whole
  solve, exactly like the ABFT checksum metadata (selective
  reliability); its application is a TMR-replicated vector kernel;
- strikes on ``x``/``r``/``z`` land in the TMR-voted vector phase: a
  single strike per kernel is out-voted, a double strike defeats the
  vote and forces a rollback.

ONLINE-DETECTION is rejected: Chen's orthogonality test assumes the
unpreconditioned CG recurrence.  Recovery follows the CG ledger
(:data:`~repro.resilience.protocol.CG_RECOVERY`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.checkpoint.store import Checkpoint
from repro.core.methods import Scheme, SchemeConfig
from repro.resilience.protocol import CG_RECOVERY, SPMV_PRE_TARGETS, StepOutcome
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv_kernel

__all__ = ["JacobiPCGPlugin"]


class JacobiPCGPlugin:
    """Preconditioned CG (Saad, Alg. 9.1) with a protected product."""

    name = "pcg"
    recovery = CG_RECOVERY

    def check_scheme(self, scheme: Scheme) -> None:
        if not scheme.uses_abft:
            raise ValueError(f"{self.name} supports the ABFT schemes only")

    def bind(
        self,
        a: CSRMatrix,
        live: CSRMatrix,
        b: np.ndarray,
        config: SchemeConfig,
        workspace,
        backend=None,
    ) -> None:
        self.backend = backend
        # Reliable metadata, like the checksums: extracted once per
        # matrix, not per run.
        self.minv = workspace.jacobi_minv(a)
        self.live = live
        self.b = b
        # Workspace-backed vectors, storage reused across runs.
        self.x, self.r, self.p, self.q, self.z = workspace.vector_set(
            "pcg", ("x", "r", "p", "q", "z"), a.nrows
        )
        #: The SpMxV products scratch every direct product shares.
        self.scratch = workspace.buffer("spmv.scratch", live.nnz)
        self.iteration = 0

    def init_state(
        self,
        a: CSRMatrix,
        live: CSRMatrix,
        b: np.ndarray,
        x0: "np.ndarray | None",
        config: SchemeConfig,
        workspace,
        backend=None,
    ) -> None:
        self.bind(a, live, b, config, workspace, backend)
        # Fully overwritten: no state can leak between runs sharing the
        # workspace.
        self.x[:] = 0.0
        if x0 is not None:
            self.x[:] = x0
        spmv_kernel(live, self.x, out=self.r, scratch=self.scratch, backend=backend)
        np.subtract(b, self.r, out=self.r)
        np.multiply(self.minv, self.r, out=self.z)
        self.p[:] = self.z
        self.q[:] = 0.0
        self.rz = float(self.r @ self.z)
        self.rnorm = self._rnorm()

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        return {"x": self.x, "r": self.r, "p": self.p, "q": self.q, "z": self.z}

    def scalars(self) -> dict[str, float]:
        return {"rz": self.rz, "rnorm": self.rnorm}

    def load_scalars(self, cp: Checkpoint) -> None:
        self.rz = float(cp.scalars["rz"])
        self.rnorm = float(cp.scalars["rnorm"])
        self.iteration = cp.iteration

    def initial_converged(self, threshold: float) -> bool:
        return self.rnorm <= threshold

    def _rnorm(self) -> float:
        """Residual norm via the active backend (bit-identical: every
        shipped backend inherits the same ``sqrt(r·r)``)."""
        if self.backend is not None:
            return float(self.backend.norm2(self.r))
        return math.sqrt(float(self.r @ self.r))

    def after_rollback(self) -> None:
        """PCG keeps no verification-chunk state."""

    def refresh(self, cp: Checkpoint, a: CSRMatrix, b: np.ndarray) -> None:
        """Restart PCG from the checkpointed iterate with reliable data."""
        self.x[:] = cp.vectors["x"]
        self.live.val[:] = a.val
        self.live.colid[:] = a.colid
        self.live.rowidx[:] = a.rowidx
        self.r[:] = b - spmv_kernel(a, self.x, scratch=self.scratch, backend=self.backend)
        self.z[:] = self.minv * self.r
        self.p[:] = self.z
        self.q[:] = 0.0
        self.rz = float(self.r @ self.z)
        self.iteration = cp.iteration

    # ------------------------------------------------------------------
    # one iteration
    # ------------------------------------------------------------------
    def step(self, ctx, strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        ctx.charge_verified_iteration()

        pre = [s for s in strikes if s[0] in SPMV_PRE_TARGETS]
        post = [s for s in strikes if s[0] == "q"]
        vector_phase = [s for s in strikes if s[0] in ("r", "x", "z")]

        y = ctx.protected_product(self.p, pre, post, count_detection=True)
        if y is None:
            return StepOutcome.rollback("abft")
        self.q[:] = y

        if not ctx.tmr_vote(vector_phase, stop_on_failure=True):
            return StepOutcome.rollback("tmr")

        # Reliable PCG update (TMR-voted kernels, reliable M⁻¹ apply).
        pq = float(self.p @ self.q)
        if not math.isfinite(pq) or pq <= 0.0:
            ctx.trace("breakdown", what="pq", value=pq)
            return StepOutcome.rollback("breakdown")
        if not self._update(pq):
            return StepOutcome.rollback("breakdown")
        return self._advanced(ctx)

    def _update(self, pq: float) -> bool:
        """``α → x, r, z → rz → β → p → ‖r‖`` given ``pq = pᵀq``; False
        (with ``p`` and ``rz`` untouched) when the new ``rz`` is not finite."""
        alpha_step = self.rz / pq
        self.x += alpha_step * self.p
        self.r -= alpha_step * self.q
        self.z[:] = self.minv * self.r
        rz_new = float(self.r @ self.z)
        if not math.isfinite(rz_new):
            return False
        beta = rz_new / self.rz
        self.p *= beta
        self.p += self.z
        self.rz = rz_new
        self.iteration += 1
        self.rnorm = self._rnorm()
        return True

    def _advanced(self, ctx) -> StepOutcome:
        rnorm = self.rnorm
        return StepOutcome.advanced(bool(math.isfinite(rnorm) and rnorm <= ctx.threshold))

    def replay_step(self, ctx) -> None:
        """One strike-free step against the pristine matrix (trajectory
        arithmetic only: no charge, no verification)."""
        ctx.clean_product(self.p, self.q)
        self._update(float(self.p @ self.q))

    def advance_clean(self, ctx, scalars: "dict[str, float]") -> StepOutcome:
        """Account the clean step to the state whose ``scalars()`` are
        given without executing it (every guard of :meth:`step` passed
        when that state was recorded, whatever the scheme)."""
        ctx.charge_verified_iteration()
        self.rz, self.rnorm = scalars["rz"], scalars["rnorm"]
        self.iteration += 1
        return self._advanced(ctx)
