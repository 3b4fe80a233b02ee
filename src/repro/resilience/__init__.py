"""Solver-agnostic resilience engine and its recurrence plugins.

The paper combines ABFT-protected SpMxV, TMR-voted vector kernels and
verified checkpointing, and claims the combination "carries over to
CGNE, BiCG, BiCGstab".  This package is that claim as architecture:

- :mod:`repro.resilience.engine` — the protection engine.  It owns
  strike sampling/routing, the protected product, TMR voting,
  checkpoint/rollback/refresh orchestration, the reliable final check
  and all time/recovery accounting;
- :mod:`repro.resilience.protocol` — the small protocol a solver
  implements to run on the engine (iteration state, strike windows,
  one step function, a convergence test, a refresh reset), plus the
  :class:`~repro.resilience.protocol.RecoveryPolicy` ledgers;
- :mod:`repro.resilience.cg` / :mod:`~repro.resilience.bicgstab` /
  :mod:`~repro.resilience.pcg` — the recurrence plugins.  CG and
  BiCGstab reproduce the seed tree's monolithic drivers bit-for-bit
  (``tests/test_resilience_golden.py``); Jacobi-preconditioned CG is
  the first solver born on the engine;
- :mod:`repro.resilience.registry` — :class:`~repro.core.methods
  .Method` → plugin dispatch.  :func:`run_ft_method` is the one
  spelling of a protected solve: ``run_ft_method("cg" | "bicgstab" |
  "pcg", a, b, config, ...)``;
- :mod:`repro.resilience.accounting` — the shared
  :class:`RecoveryCounters` / :class:`TimeBreakdown` /
  :class:`SolveResult` containers.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.resilience.accounting import RecoveryCounters, SolveResult, TimeBreakdown
    from repro.resilience.bicgstab import BiCGstabPlugin
    from repro.resilience.cg import CGPlugin
    from repro.resilience.engine import EngineContext, run_protected
    from repro.resilience.pcg import JacobiPCGPlugin
    from repro.resilience.protocol import (
        CG_RECOVERY,
        KRYLOV_RECOVERY,
        RecoveryPolicy,
        RecurrencePlugin,
        StepOutcome,
    )
    from repro.resilience.registry import PLUGIN_FACTORIES, make_plugin, run_ft_method

__all__ = [
    "RecoveryCounters",
    "TimeBreakdown",
    "SolveResult",
    "RecurrencePlugin",
    "RecoveryPolicy",
    "StepOutcome",
    "CG_RECOVERY",
    "KRYLOV_RECOVERY",
    "EngineContext",
    "run_protected",
    "CGPlugin",
    "BiCGstabPlugin",
    "JacobiPCGPlugin",
    "PLUGIN_FACTORIES",
    "make_plugin",
    "run_ft_method",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.accounting": (
            "RecoveryCounters",
            "SolveResult",
            "TimeBreakdown",
        ),
        "repro.resilience.bicgstab": ("BiCGstabPlugin",),
        "repro.resilience.cg": ("CGPlugin",),
        "repro.resilience.engine": ("EngineContext", "run_protected"),
        "repro.resilience.pcg": ("JacobiPCGPlugin",),
        "repro.resilience.protocol": (
            "CG_RECOVERY",
            "KRYLOV_RECOVERY",
            "RecoveryPolicy",
            "RecurrencePlugin",
            "StepOutcome",
        ),
        "repro.resilience.registry": (
            "PLUGIN_FACTORIES",
            "make_plugin",
            "run_ft_method",
        ),
    },
)
