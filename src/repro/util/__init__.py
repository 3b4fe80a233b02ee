"""Shared utilities: deterministic RNG handling and validation."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.util.rng import as_generator, spawn_children, spawn_named
    from repro.util.validate import (
        check_positive,
        check_nonnegative,
        check_probability,
        check_fault_point,
        check_square,
        check_vector,
    )

__all__ = [
    "as_generator",
    "spawn_children",
    "spawn_named",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_fault_point",
    "check_square",
    "check_vector",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.rng": ("as_generator", "spawn_children", "spawn_named"),
        "repro.util.validate": (
            "check_positive",
            "check_nonnegative",
            "check_probability",
            "check_fault_point",
            "check_square",
            "check_vector",
        ),
    },
)
