"""BiCGstab as a recurrence plugin (the paper's scheme beyond CG).

Section 3 claims the combination of ABFT-protected products, TMR vector
kernels and verified checkpointing carries over to "CGNE, BiCG,
BiCGstab".  This plugin makes that concrete for BiCGstab, whose two
products per iteration (``A·p`` and ``A·s``) are both routed through
the engine's protected SpMxV; strikes on the matrix arrays and each
product's input vector land in that product's window, ``v`` strikes
corrupt the first product's output, and ``x``/``r``/``r_hat`` strikes
are TMR-voted at the head of the iteration.

ONLINE-DETECTION is rejected: Chen's stability tests are CG-specific
(the conjugacy argument does not port).

Time accounting: one BiCGstab iteration is normalized to 1 (it costs
roughly two CG iterations in flops; the cost model's ``t_iter`` is the
unit, so compare within the method, not across methods).
"""

from __future__ import annotations

import math

import numpy as np

from repro.checkpoint.store import Checkpoint
from repro.core.methods import Scheme, SchemeConfig
from repro.resilience.protocol import KRYLOV_RECOVERY, SPMV_PRE_TARGETS, StepOutcome
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv_kernel

__all__ = ["BiCGstabPlugin"]

#: Second-product (``A·s``) window: only its input vector — the matrix
#: arrays already belong to the first product's window
#: (:data:`~repro.resilience.protocol.SPMV_PRE_TARGETS`).
_WINDOW2 = frozenset({"s"})


class BiCGstabPlugin:
    """The BiCGstab recurrence behind the engine (ABFT schemes only)."""

    name = "bicgstab"
    recovery = KRYLOV_RECOVERY

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
        self.live = live
        self.b = b
        self.backend = backend
        # Workspace-backed vectors, storage reused across runs.
        self.x, self.r, self.r_hat, self.p, self.v, self.s = workspace.vector_set(
            "bicgstab", ("x", "r", "r_hat", "p", "v", "s"), a.nrows
        )
        #: The SpMxV products scratch every direct product shares.
        self.scratch = workspace.buffer("spmv.scratch", live.nnz)
        self.scal: dict[str, float] = {
            "rho": 1.0,
            "alpha": 1.0,
            "omega": 1.0,
            "iteration": 0,
            "rnorm": math.nan,  # set by init_state or a loaded state
        }

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
        self.r_hat[:] = self.r
        self.p[:] = 0.0
        self.v[:] = 0.0
        self.s[:] = 0.0
        self.scal["rnorm"] = self._rnorm()

    @property
    def iteration(self) -> int:
        return int(self.scal["iteration"])

    @iteration.setter
    def iteration(self, value: int) -> None:
        self.scal["iteration"] = int(value)

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        return {
            "x": self.x,
            "r": self.r,
            "r_hat": self.r_hat,
            "p": self.p,
            "v": self.v,
            "s": self.s,
        }

    def scalars(self) -> dict[str, float]:
        return dict(self.scal)

    def load_scalars(self, cp: Checkpoint) -> None:
        self.scal.update(cp.scalars)
        self.scal["iteration"] = int(cp.scalars["iteration"])

    def initial_converged(self, threshold: float) -> bool:
        return self.scal["rnorm"] <= threshold

    def _rnorm(self) -> float:
        """Residual norm via the active backend (bit-identical: every
        shipped backend inherits the same ``sqrt(r·r)``)."""
        if self.backend is not None:
            return float(self.backend.norm2(self.r))
        return math.sqrt(float(self.r @ self.r))

    def after_rollback(self) -> None:
        """BiCGstab keeps no verification-chunk state."""

    def refresh(self, cp: Checkpoint, a: CSRMatrix, b: np.ndarray) -> None:
        """Re-read initial data: heal a tainted checkpoint.

        The recurrence restarts from the checkpointed iterate with the
        matrix from reliable storage and a reliably recomputed
        residual; the logical iteration count is kept (the restart is
        a continuation, not a rewind).
        """
        self.live.val[:] = a.val
        self.live.colid[:] = a.colid
        self.live.rowidx[:] = a.rowidx
        self.x[:] = cp.vectors["x"]
        self.r[:] = b - spmv_kernel(a, self.x, scratch=self.scratch, backend=self.backend)
        self.r_hat[:] = self.r
        self.p[:] = 0.0
        self.v[:] = 0.0
        self.s[:] = 0.0
        self.scal.update({"rho": 1.0, "alpha": 1.0, "omega": 1.0})

    # ------------------------------------------------------------------
    # one iteration
    # ------------------------------------------------------------------
    def step(self, ctx, strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        ctx.charge_verified_iteration()

        pre1 = [st for st in strikes if st[0] in SPMV_PRE_TARGETS]
        post1 = [st for st in strikes if st[0] == "v"]
        pre2 = [st for st in strikes if st[0] in _WINDOW2]
        tmr_phase = [st for st in strikes if st[0] in ("x", "r", "r_hat")]

        # TMR-protected vector phase (same semantics as FT-CG, but the
        # remaining votes finish even after one fails).
        if not ctx.tmr_vote(tmr_phase, stop_on_failure=False):
            return StepOutcome.rollback("tmr")

        reason = self._iterate(
            ctx,
            lambda p: ctx.protected_product(p, pre1, post1, count_detection=True),
            lambda s_: ctx.protected_product(s_, pre2, [], count_detection=True),
        )
        if reason is not None:
            return StepOutcome.rollback(reason)
        return self._advanced(ctx)

    def _iterate(self, ctx, product1, product2) -> "str | None":
        """The BiCGstab update around its two products ``A·p`` and
        ``A·s`` (each returns the product, or ``None`` for a detected
        error); returns the rollback reason, ``None`` once advanced."""
        rho_new = float(self.r_hat @ self.r)
        if rho_new == 0.0 or self.scal["omega"] == 0.0:
            ctx.trace("breakdown", what="rho")
            return "breakdown"
        beta = (rho_new / self.scal["rho"]) * (self.scal["alpha"] / self.scal["omega"])
        self.p[:] = self.r + beta * (self.p - self.scal["omega"] * self.v)

        y1 = product1(self.p)
        if y1 is None:
            return "abft"
        self.v[:] = y1
        denom = float(self.r_hat @ self.v)
        if denom == 0.0 or not math.isfinite(denom):
            ctx.trace("breakdown", what="denom", value=denom)
            return "breakdown"
        alpha_k = rho_new / denom
        self.s[:] = self.r - alpha_k * self.v

        t = product2(self.s)
        if t is None:
            return "abft"
        tt = float(t @ t)
        if tt == 0.0 or not math.isfinite(tt):
            ctx.trace("breakdown", what="tt", value=tt)
            return "breakdown"
        omega_k = float(t @ self.s) / tt
        self.x += alpha_k * self.p + omega_k * self.s
        self.r[:] = self.s - omega_k * t
        self.scal.update({"rho": rho_new, "alpha": alpha_k, "omega": omega_k})
        self.scal["iteration"] += 1
        self.scal["rnorm"] = self._rnorm()
        return None

    def _advanced(self, ctx) -> StepOutcome:
        rnorm = self.scal["rnorm"]
        return StepOutcome.advanced(bool(math.isfinite(rnorm) and rnorm <= ctx.threshold))

    def replay_step(self, ctx) -> None:
        """One strike-free step against the pristine matrix (trajectory
        arithmetic only: no charge, no verification)."""
        y = ctx.workspace.abft_buffers(*self.live.shape, self.live.nnz)[1]

        def product(v: np.ndarray) -> np.ndarray:
            return ctx.clean_product(v, y)

        self._iterate(ctx, product, product)

    def advance_clean(self, ctx, scalars: "dict[str, float]") -> StepOutcome:
        """Account the clean step to the state whose ``scalars()`` are
        given without executing it (every guard of :meth:`step` passed
        when that state was recorded, whatever the scheme)."""
        ctx.charge_verified_iteration()
        self.scal.update(scalars)
        return self._advanced(ctx)
