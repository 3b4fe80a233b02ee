"""Protected CG under the paper's three schemes, written out as the paper
states it: the independent oracle the resilience engine must match.

- Algorithm 1 is the recurrence.  Under the ABFT schemes every SpMxV is
  Algorithm 2 (``protected_spmv``), the vector kernels are TMR-voted,
  ABFT-CORRECTION repairs a single error in place and any other
  detection rolls back.  ONLINE-DETECTION runs unprotected and applies
  Chen's tests every ``d`` iterations.
- A verified checkpoint, every ``s`` verified chunks, holds full copies
  of the vectors *and* of the live matrix arrays.
- A rollback loop longer than ``max(8, 2 s)`` means the checkpoint is
  tainted: the solve restarts from its iterate with the matrix re-read
  from reliable storage ("refresh").  So does a convergence that the
  final check against the pristine matrix refutes.

No workspace, memo, plugin, engine or delta checkpoint: the arithmetic
is the public kernels (``spmv``, ``protected_spmv``, ``chen_verify``,
``flip_bits_array``) in the engine's expression and charging order, so
the floats can match bit for bit.

Strikes come from an explicit ``schedule``: the ``k``-th executed
iteration (0-based) takes ``schedule[k]``, a list of ``(target,
position, bit)`` on ``val``/``colid``/``rowidx`` (the live matrix) or
``x``/``r``/``p``/``q``.  They land in Section 5.1's windows: matrix and
``p`` before the product, ``q`` on its output, ``r``/``x`` in the
TMR-voted vector phase (under ONLINE-DETECTION, all straight into
memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.core import Scheme, SchemeConfig
from repro.core.stability import chen_verify
from repro.faults.bitflip import flip_bits_array
from repro.resilience.accounting import RecoveryCounters, TimeBreakdown
from repro.sparse import CSRMatrix, norm1, spmv

MATRIX = ("val", "colid", "rowidx")
PRE_PRODUCT = frozenset({"val", "colid", "rowidx", "p"})

Strike = "tuple[str, int, int]"


@dataclass
class SpecResult:
    """The fields a :class:`repro.resilience.accounting.SolveResult`
    shares with the spec."""

    x: np.ndarray
    converged: bool
    iterations: int
    iterations_executed: int
    time_units: float
    residual_norm: float
    threshold: float
    counters: RecoveryCounters
    breakdown: TimeBreakdown


def flip(arr: np.ndarray, position: int, bit: int) -> None:
    flip_bits_array(arr.reshape(-1), np.array([position]), np.array([bit]))


class ProtectedCG:
    """One protected CG solve of ``A x = b`` from ``x = 0``."""

    def __init__(
        self,
        a: CSRMatrix,
        b: np.ndarray,
        config: SchemeConfig,
        schedule: "dict[int, list[Strike]] | None" = None,
        *,
        eps: float = 1e-8,
        maxiter: "int | None" = None,
    ) -> None:
        self.a, self.b, self.config = a, np.asarray(b, dtype=np.float64), config
        self.costs, self.scheme = config.costs, config.scheme
        self.schedule, self.eps = schedule or {}, eps
        self.maxiter = 20 * a.nrows if maxiter is None else maxiter
        # The corruptible working copy, with no structure stamp: every
        # product scans for wild indices.
        self.live = CSRMatrix(a.val.copy(), a.colid.copy(), a.rowidx.copy(), a.shape, check=False)
        if self.scheme.uses_abft:
            self.checksums = compute_checksums(a, nchecks=2 if self.scheme.corrects else 1)
        self.counters, self.breakdown = RecoveryCounters(), TimeBreakdown()
        self.time = self.uncommitted = 0.0
        self.stuck, self.stuck_threshold = 0, max(8, 2 * config.checkpoint_interval)
        self.escalations = 0  # rollbacks escalated to a refresh
        self.chunks = 0  # verified chunks since the last checkpoint
        self.iter_in_chunk = 0  # ONLINE-DETECTION's position in the chunk

    # -- state --------------------------------------------------------
    def array(self, target: str) -> np.ndarray:
        return getattr(self.live, target) if target in MATRIX else self.v[target]

    def strike(self, s: Strike) -> None:
        flip(self.array(s[0]), s[1], s[2])

    def save(self) -> None:
        self.cp = (
            self.iteration,
            self.rr,
            {k: v.copy() for k, v in self.v.items()},
            {k: self.array(k).copy() for k in MATRIX},
        )

    def restore(self) -> None:
        self.iteration, self.rr, vectors, matrix = self.cp
        for k in self.v:
            self.v[k][:] = vectors[k]
        for k in MATRIX:
            self.array(k)[:] = matrix[k]

    def update(self, pq: float) -> None:
        """Algorithm 1 lines 6-10 given ``pq = pᵀAp``."""
        v = self.v
        alpha = self.rr / pq if pq != 0.0 else math.nan
        v["x"] += alpha * v["p"]
        v["r"] -= alpha * v["q"]
        rr = float(v["r"] @ v["r"])
        beta = rr / self.rr if self.rr != 0.0 else math.nan
        v["p"] *= beta
        v["p"] += v["r"]
        self.rr = rr

    def true_residual(self) -> float:
        r = self.b - spmv(self.a, self.v["x"])
        return math.sqrt(float(r @ r))

    # -- recovery -----------------------------------------------------
    def charge_recovery(self, cost: float) -> None:
        self.time += cost
        self.breakdown.recovery += cost
        self.breakdown.wasted_work += self.uncommitted
        self.uncommitted = 0.0

    def rollback(self) -> None:
        self.stuck += 1
        if self.stuck > self.stuck_threshold:
            self.escalations += 1
            return self.refresh()
        self.counters.rollbacks += 1
        self.charge_recovery(self.costs.t_rec)
        self.restore()
        self.chunks = self.iter_in_chunk = 0

    def refresh(self) -> None:
        """Restart from the checkpointed ``x`` with reliable data."""
        self.counters.rollbacks += 1
        self.stuck = 0
        self.charge_recovery(self.costs.t_rec + self.costs.t_iter)
        v, self.iteration = self.v, self.cp[0]
        v["x"][:] = self.cp[2]["x"]
        for k in MATRIX:
            self.array(k)[:] = getattr(self.a, k)
        v["r"][:] = self.b - spmv(self.a, v["x"])
        v["p"][:] = v["r"]
        v["q"][:] = 0.0
        self.rr = float(v["r"] @ v["r"])
        self.save()
        self.chunks = self.iter_in_chunk = 0

    def maybe_checkpoint(self) -> None:
        self.chunks += 1
        if self.chunks >= self.config.checkpoint_interval:
            self.chunks = 0
            self.save()
            self.counters.checkpoints += 1
            self.stuck = 0
            self.time += self.costs.t_cp
            self.breakdown.checkpoint += self.costs.t_cp
            self.breakdown.useful_work += self.uncommitted
            self.uncommitted = 0.0

    # -- one iteration: (rolled back, converged, verified) -------------
    def abft_step(self, strikes: "list[Strike]") -> "tuple[bool, bool, bool]":
        ok = self.abft_iteration(strikes)
        verif = self.config.verification_cost
        self.time += self.costs.t_iter + verif
        self.uncommitted += self.costs.t_iter
        self.breakdown.verification += verif
        self.counters.verifications += 1
        if not ok:
            self.counters.detections += 1
            return True, False, True
        self.iteration += 1
        return False, math.sqrt(self.rr) <= self.threshold, True

    def abft_iteration(self, strikes: "list[Strike]") -> bool:
        v = self.v
        pre = [s for s in strikes if s[0] in PRE_PRODUCT]
        post = [s for s in strikes if s[0] == "q"]
        voted = [s for s in strikes if s[0] in ("r", "x")]

        def hook(stage, _a, _x, y):
            if stage == "pre":
                for s in pre:
                    self.strike(s)
            elif y is not None:
                for _, position, bit in post:  # the product's output
                    flip(y, position, bit)

        res = protected_spmv(
            self.live, v["p"], self.checksums, correct=self.scheme.corrects,
            fault_hook=hook if pre or post else None,
        )
        if res.status is SpmvStatus.CORRECTED:
            self.counters.record_correction(res.correction.kind)
        if not res.trusted:
            return False
        v["q"][:] = res.y
        # TMR: one strike per vector is out-voted, two defeat the vote.
        hits: "dict[str, list[Strike]]" = {}
        for s in voted:
            hits.setdefault(s[0], []).append(s)
        for target_hits in hits.values():
            if len(target_hits) >= 2:
                for s in target_hits:
                    self.strike(s)
                self.counters.tmr_detections += 1
                return False
            self.counters.tmr_corrections += 1
        pq = float(v["p"] @ v["q"])
        if not math.isfinite(pq) or pq <= 0.0:
            return False
        self.update(pq)
        return True

    def online_step(self, strikes: "list[Strike]") -> "tuple[bool, bool, bool]":
        v = self.v
        for s in strikes:
            self.strike(s)
        v["q"][:] = spmv(self.live, v["p"])
        self.update(float(v["p"] @ v["q"]))
        done = math.isfinite(self.rr) and math.sqrt(self.rr) <= self.threshold
        self.time += self.costs.t_iter
        self.uncommitted += self.costs.t_iter
        self.iteration += 1
        self.iter_in_chunk += 1
        if self.iter_in_chunk < self.config.verification_interval and not done:
            return False, False, False
        report = chen_verify(self.live, self.b, v["x"], v["r"], v["p"], v["q"],
                             check_orthogonality=not done)
        self.time += self.costs.t_verif_online
        self.breakdown.verification += self.costs.t_verif_online
        self.counters.verifications += 1
        self.iter_in_chunk = 0
        if not report.passed:
            self.counters.detections += 1
            return True, False, True
        return False, done, True

    # -- the loop -----------------------------------------------------
    def run(self) -> SpecResult:
        with np.errstate(all="ignore"):
            b, v = self.b, {k: np.zeros(self.a.nrows) for k in ("x", "r", "p", "q")}
            self.v = v
            v["r"][:] = b - spmv(self.live, v["x"])
            v["p"][:] = v["r"]
            self.rr, self.iteration = float(v["r"] @ v["r"]), 0
            self.threshold = self.eps * (
                norm1(self.a) * float(np.linalg.norm(v["r"])) + float(np.linalg.norm(b))
            )
            self.save()
            step = self.abft_step if self.scheme.uses_abft else self.online_step
            executed, accepted = 0, None
            converged = math.sqrt(self.rr) <= self.threshold
            while not converged and executed < self.maxiter:
                strikes = list(self.schedule.get(executed, ()))
                self.counters.faults_injected += len(strikes)
                executed += 1
                rolled_back, converged, verified = step(strikes)
                if rolled_back:
                    self.rollback()
                    continue
                if not converged and verified:
                    self.maybe_checkpoint()
                if converged:  # the reliable final check
                    norm = self.true_residual()
                    if norm <= self.threshold:
                        accepted = norm
                    else:
                        self.counters.final_check_failures += 1
                        self.counters.detections += 1
                        self.refresh()
                        converged = False
            self.breakdown.useful_work += self.uncommitted
            residual = self.true_residual() if accepted is None else accepted
        return SpecResult(
            x=v["x"].copy(),
            converged=residual <= self.threshold,
            iterations=self.iteration,
            iterations_executed=executed,
            time_units=self.time,
            residual_norm=residual,
            threshold=self.threshold,
            counters=self.counters,
            breakdown=self.breakdown,
        )


def protected_cg(a, b, scheme, *, s=10, d=1, **kwargs) -> SpecResult:
    """One strike-free spec solve; ``scheme`` is a :class:`Scheme` or its name."""
    scheme = Scheme.parse(scheme)
    config = SchemeConfig(scheme, checkpoint_interval=s,
                          verification_interval=1 if scheme.uses_abft else d)
    return ProtectedCG(a, b, config, **kwargs).run()
