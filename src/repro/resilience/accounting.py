"""Recovery bookkeeping shared by every protected solver.

These containers used to live inside the monolithic FT-CG driver; the
resilience engine owns them now so every recurrence plugin (CG,
BiCGstab, PCG, ...) reports through the same ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.methods import SchemeConfig

__all__ = ["RecoveryCounters", "TimeBreakdown", "SolveResult"]


@dataclass
class RecoveryCounters:
    """Bookkeeping of everything the resilience layers did."""

    faults_injected: int = 0
    detections: int = 0  #: verifications that flagged an error
    corrections: dict[str, int] = field(default_factory=dict)  #: ABFT repairs by kind
    rollbacks: int = 0
    checkpoints: int = 0
    verifications: int = 0
    tmr_corrections: int = 0  #: vector-kernel strikes out-voted by TMR
    tmr_detections: int = 0  #: TMR double-error failures (forced rollback)
    final_check_failures: int = 0  #: bogus convergences caught at the end

    def record_correction(self, kind: str) -> None:
        """Count one ABFT forward-recovery repair of the given kind."""
        self.corrections[kind] = self.corrections.get(kind, 0) + 1

    @property
    def total_corrections(self) -> int:
        """All ABFT forward recoveries."""
        return sum(self.corrections.values())


@dataclass
class TimeBreakdown:
    """Where the simulated execution time went (all in ``Titer`` units).

    ``useful_work + wasted_work + verification + checkpoint + recovery``
    equals the run's total ``time_units``; the *waste ratio* is what the
    Section-4 model's overhead ``E(s,T)/(sT)`` predicts.
    """

    useful_work: float = 0.0  #: iterations that survived to the end
    wasted_work: float = 0.0  #: iterations later discarded by rollbacks
    verification: float = 0.0
    checkpoint: float = 0.0
    recovery: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all components."""
        return (
            self.useful_work
            + self.wasted_work
            + self.verification
            + self.checkpoint
            + self.recovery
        )

    @property
    def overhead_ratio(self) -> float:
        """Total time per useful time unit (the model's objective)."""
        return self.total / self.useful_work if self.useful_work > 0 else float("inf")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a fault-tolerant solve (any method, any scheme).

    Attributes
    ----------
    x:
        The solution vector.
    converged:
        Whether the (reliably re-verified) stopping criterion was met.
    iterations:
        Logical solver iteration reached (rollbacks rewind this count).
    iterations_executed:
        Total iterations of work performed, including rolled-back ones.
    time_units:
        Simulated execution time in units of ``Titer`` — iteration work
        plus verification, checkpoint and recovery overheads.  This is
        the quantity Table 1 and Figure 1 report.
    wall_seconds:
        Actual wall-clock time of the run (reference only).
    residual_norm:
        True residual ``‖b − Ax‖`` recomputed with the clean matrix.
    threshold:
        The stopping threshold used.
    counters:
        Recovery bookkeeping.
    breakdown:
        Component-wise split of ``time_units``.
    config:
        The configuration that produced this run.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    iterations_executed: int
    time_units: float
    wall_seconds: float
    residual_norm: float
    threshold: float
    counters: RecoveryCounters
    breakdown: TimeBreakdown
    config: SchemeConfig
