"""The stable public API layer.

Three pillars on top of the resilience and campaign engines:

- :mod:`repro.api.facade` — :func:`repro.solve`: one call from problem
  to :class:`SolveReport` (solution, convergence history, recovery
  ledger, model-recommended interval);
- :mod:`repro.api.study` — declarative :class:`Study` sweeps compiled
  to campaign tasks (parallel, persistent, resumable), with the
  paper's Table-1 / Figure-1 grids as presets;
- :mod:`repro.api.cli` + :mod:`repro.api.report` — the ``repro``
  console script (``solve`` / ``table1`` / ``figure1`` / ``study run``
  / ``report``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.api.facade import CheckpointSpec, FaultSpec, SolveReport, solve
    from repro.api.study import Study, StudyPoint, StudyResult
    from repro.api.report import StoreSummary, GroupSummary, summarize_store, format_summary

__all__ = [
    "solve",
    "SolveReport",
    "FaultSpec",
    "CheckpointSpec",
    "Study",
    "StudyPoint",
    "StudyResult",
    "StoreSummary",
    "GroupSummary",
    "summarize_store",
    "format_summary",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api.facade": ("CheckpointSpec", "FaultSpec", "SolveReport", "solve"),
        "repro.api.study": ("Study", "StudyPoint", "StudyResult"),
        "repro.api.report": (
            "StoreSummary",
            "GroupSummary",
            "summarize_store",
            "format_summary",
        ),
    },
)
