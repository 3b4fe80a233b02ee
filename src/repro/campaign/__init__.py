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
- :mod:`repro.campaign.executor` — the campaign runner: resume,
  ordered-result collection and serial execution for ``jobs=1``;
- :mod:`repro.campaign.serve` — the one dispatcher and supervised
  worker fleet behind ``--jobs N`` (guided batches);
- :mod:`repro.campaign.progress` — throughput / ETA reporting;
- :mod:`repro.campaign.aggregate` — regrouping of raw per-task records
  into the existing :class:`~repro.sim.results.RunStatistics` /
  :class:`~repro.sim.results.Table1Row` /
  :class:`~repro.sim.results.Figure1Point` shapes.

Records persist in a result store of the layer below
(:mod:`repro.store`: single-file JSONL by default, ``sharded:``
JSONL shards, or ``sqlite:``), keyed by task hash — crash-safe
append, cache-hit skipping and resume of half-finished campaigns.
The paper's Table-1 / Figure-1 drivers (``Study.table1()`` /
``Study.figure1()``, ``python -m repro table1|figure1``) execute
through this engine.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.campaign.spec import CampaignSpec, TaskSpec
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.executor import default_jobs, execute_task, run_campaign
    from repro.campaign.serve import ServeInterrupted
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
    "ProgressReporter",
    "default_jobs",
    "execute_task",
    "run_campaign",
    "ServeInterrupted",
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
        "repro.campaign.progress": ("ProgressReporter",),
        "repro.campaign.executor": ("default_jobs", "execute_task", "run_campaign"),
        "repro.campaign.serve": ("ServeInterrupted",),
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
