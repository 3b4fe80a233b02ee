"""Parallel, resumable experiment-campaign engine.

The paper's evaluation is a large grid of *independent* fault-injected
solves — (matrix × scheme × α × checkpoint-interval × repetition) —
which :mod:`repro.sim.engine` executes one point at a time.  This
package turns such a grid into a first-class *campaign*:

- :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec` /
  :class:`TaskSpec` dataclasses that expand a parameter grid into a
  flat list of content-hashable tasks, preserving the library's
  deterministic ``spawn_named`` seed derivation so parallel and serial
  execution are bit-identical;
- :mod:`repro.campaign.executor` — a :class:`concurrent.futures
  .ProcessPoolExecutor`-based runner with chunked scheduling,
  ordered-result collection and a serial fallback for ``jobs=1``;
- :mod:`repro.campaign.store` — the single-file JSONL result store
  keyed by task hash: crash-safe append, cache-hit skipping and
  resume of half-finished campaigns.  It is also the default backend
  of the pluggable storage layer (:mod:`repro.store`), whose
  ``sharded:`` / ``sqlite:`` backends add safe concurrent
  multi-process writers, streaming aggregation over partial stores
  and the lease-coordinated serve mode;
- :mod:`repro.campaign.progress` — throughput / ETA reporting;
- :mod:`repro.campaign.aggregate` — regrouping of raw per-task records
  into the existing :class:`~repro.sim.engine.RunStatistics` /
  :class:`~repro.sim.results.Table1Row` /
  :class:`~repro.sim.results.Figure1Point` shapes.

The experiment drivers (:func:`repro.sim.experiments.run_table1`,
:func:`repro.sim.experiments.run_figure1` and ``python -m repro``)
execute through this engine; their public signatures and outputs are
unchanged, with new ``jobs`` / ``store`` / ``progress`` knobs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.campaign.spec import CampaignSpec, TaskSpec
    from repro.campaign.store import ResultStore, StoreError
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.executor import default_jobs, execute_task, run_campaign
    from repro.campaign.aggregate import (
        aggregate_figure1,
        aggregate_figure1_store,
        aggregate_table1,
        aggregate_table1_store,
        records_for_tasks,
        stats_from_record,
    )

__all__ = [
    "CampaignSpec",
    "TaskSpec",
    "ResultStore",
    "StoreError",
    "ProgressReporter",
    "default_jobs",
    "execute_task",
    "run_campaign",
    "aggregate_table1",
    "aggregate_figure1",
    "aggregate_table1_store",
    "aggregate_figure1_store",
    "records_for_tasks",
    "stats_from_record",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.campaign.spec": ("CampaignSpec", "TaskSpec"),
        "repro.campaign.store": ("ResultStore", "StoreError"),
        "repro.campaign.progress": ("ProgressReporter",),
        "repro.campaign.executor": ("default_jobs", "execute_task", "run_campaign"),
        "repro.campaign.aggregate": (
            "aggregate_figure1",
            "aggregate_figure1_store",
            "aggregate_table1",
            "aggregate_table1_store",
            "records_for_tasks",
            "stats_from_record",
        ),
    },
)
