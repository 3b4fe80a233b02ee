"""Iterative solvers and their fault-tolerant variants.

- :mod:`repro.core.cg` — the textbook Conjugate Gradient method
  (paper Algorithm 1);
- :mod:`repro.core.pcg` — preconditioned CG (the Section-6 extension);
- :mod:`repro.core.krylov` — plain BiCGstab, the fault-free baseline
  of the BiCGstab plugin;
- :mod:`repro.core.stability` — Chen's verification tests
  (orthogonality + recomputed residual) used by ONLINE-DETECTION;
- :mod:`repro.core.methods` — scheme/method descriptors and cost
  models for the three protection schemes.

The fault-tolerant solvers run on :mod:`repro.resilience`, the layer
above, which owns the protection machinery (protected products, TMR
voting, checkpoint/rollback orchestration, accounting).  Its one entry
point is ``repro.resilience.run_ft_method("cg" | "bicgstab" | "pcg",
a, b, config, ...)``; new solvers are added there as recurrence
plugins.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.core.cg import CGResult
    from repro.core.pcg import jacobi_preconditioner, ssor_preconditioner
    from repro.core.krylov import bicgstab
    from repro.core.stability import orthogonality_check, residual_check, chen_verify
    from repro.core.methods import Scheme, Method, CostModel, SchemeConfig

# ``repro.core.cg`` and ``repro.core.pcg`` are the submodules; the plain
# solvers are the functions ``repro.cg`` / ``repro.pcg`` (or
# ``repro.core.cg.cg``), so importing this package runs no solver code
# (docs/DESIGN.md §1).
__all__ = [
    "CGResult",
    "jacobi_preconditioner",
    "ssor_preconditioner",
    "bicgstab",
    "orthogonality_check",
    "residual_check",
    "chen_verify",
    "Scheme",
    "Method",
    "CostModel",
    "SchemeConfig",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.cg": ("CGResult",),
        "repro.core.pcg": ("jacobi_preconditioner", "ssor_preconditioner"),
        "repro.core.krylov": ("bicgstab",),
        "repro.core.stability": (
            "orthogonality_check",
            "residual_check",
            "chen_verify",
        ),
        "repro.core.methods": ("Scheme", "Method", "CostModel", "SchemeConfig"),
    },
)
