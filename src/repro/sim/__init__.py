"""Experiment harness reproducing the paper's evaluation (Section 5).

- :mod:`repro.sim.matrices` — the nine-matrix SPD suite matching the
  paper's UFL ids, sizes and densities (synthetic substitution; see
  ``docs/DESIGN.md`` §2), plus the ``REPRO_MATRIX_DIR`` registry that
  swaps in real Matrix-Market workloads when present;
- :mod:`repro.sim.engine` — repeated fault-injected runs with
  deterministic per-repetition seeding and aggregation;
- :mod:`repro.sim.experiments` — drivers for Table 1 (model
  validation) and Figure 1 (time vs normalized MTBF), executing
  through the :mod:`repro.campaign` engine (parallel ``jobs``,
  persistent ``store``, resume);
- :mod:`repro.sim.results` — result containers and paper-style text
  rendering.
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
    from repro.sim.engine import RunStatistics, repeat_run, sweep_checkpoint_interval
    from repro.sim.results import Table1Row, Figure1Point, format_table1, format_figure1
    from repro.sim.experiments import run_table1, run_figure1

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
    "sweep_checkpoint_interval",
    "Table1Row",
    "Figure1Point",
    "format_table1",
    "format_figure1",
    "run_table1",
    "run_figure1",
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
        "repro.sim.engine": (
            "RunStatistics",
            "repeat_run",
            "sweep_checkpoint_interval",
        ),
        "repro.sim.results": (
            "Table1Row",
            "Figure1Point",
            "format_table1",
            "format_figure1",
        ),
        "repro.sim.experiments": ("run_table1", "run_figure1"),
    },
)
