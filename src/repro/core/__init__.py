"""Scheme descriptors and Chen's verification tests.

- :mod:`repro.core.methods` — scheme/method descriptors and cost
  models for the three protection schemes;
- :mod:`repro.core.stability` — Chen's verification tests
  (orthogonality + recomputed residual) used by ONLINE-DETECTION.

The solvers run on :mod:`repro.resilience`, the layer above, which
owns the recurrences and the protection machinery (protected products,
TMR voting, checkpoint/rollback orchestration, accounting).  Its one
entry point is ``repro.resilience.run_ft_method("cg" | "bicgstab" |
"pcg", a, b, config, ...)``; a fault-free solve is the same call at
``alpha=0`` (or ``repro.solve(a, b, faults=None)``), and new solvers
are added there as recurrence plugins.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.core.stability import orthogonality_check, residual_check, chen_verify
    from repro.core.methods import Scheme, Method, CostModel, SchemeConfig

# Nothing is bound eagerly: importing this package loads no NumPy
# (docs/DESIGN.md §1).
__all__ = [
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
        "repro.core.stability": (
            "orthogonality_check",
            "residual_check",
            "chen_verify",
        ),
        "repro.core.methods": ("Scheme", "Method", "CostModel", "SchemeConfig"),
    },
)
