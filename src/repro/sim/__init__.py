"""Experiment harness reproducing the paper's evaluation (Section 5).

- :mod:`repro.sim.matrices` — the nine-matrix SPD suite matching the
  paper's UFL ids, sizes and densities (synthetic substitution; see
  ``docs/DESIGN.md`` §2), plus the ``REPRO_MATRIX_DIR`` registry that
  swaps in real Matrix-Market workloads when present;
- :mod:`repro.sim.engine` — repeated fault-injected runs with
  deterministic per-repetition seeding and aggregation;
- :mod:`repro.sim.results` — result containers and paper-style text
  rendering.

The Table-1 / Figure-1 drivers are the presets
``repro.api.study.Study.table1()`` / ``.figure1()`` (and ``repro
table1`` / ``repro figure1``): a sweep is a campaign, which sits above
this package (``docs/DESIGN.md`` §1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.sim.matrices import (
        MatrixSpec,
        PAPER_SUITE,
        MATRIX_DIR_ENV,
        get_matrix,
        clear_matrix_cache,
        matrix_source,
        suite_specs,
        workload_registry,
    )
    from repro.sim.engine import repeat_run
    from repro.sim.results import (
        RunStatistics,
        Table1Row,
        Figure1Point,
        format_table1,
        format_figure1,
    )

__all__ = [
    "MatrixSpec",
    "PAPER_SUITE",
    "MATRIX_DIR_ENV",
    "workload_registry",
    "matrix_source",
    "get_matrix",
    "clear_matrix_cache",
    "suite_specs",
    "RunStatistics",
    "repeat_run",
    "Table1Row",
    "Figure1Point",
    "format_table1",
    "format_figure1",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.matrices": (
            "MatrixSpec",
            "PAPER_SUITE",
            "MATRIX_DIR_ENV",
            "get_matrix",
            "clear_matrix_cache",
            "matrix_source",
            "suite_specs",
            "workload_registry",
        ),
        "repro.sim.engine": ("repeat_run",),
        "repro.sim.results": (
            "RunStatistics",
            "Table1Row",
            "Figure1Point",
            "format_table1",
            "format_figure1",
        ),
    },
)
