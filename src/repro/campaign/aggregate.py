"""Regroup raw per-task records into the paper's result shapes.

The executor hands back one flat record per task; the experiment
drivers need :class:`~repro.sim.results.Table1Row` and
:class:`~repro.sim.results.Figure1Point` lists identical to what their
serial loops used to build.  The aggregators here reproduce those
loops' grouping, ordering and tie-breaking exactly:

- Table 1 groups the interval sweep by (matrix, method, scheme) in
  task order and picks ``s*`` as the argmin of mean time with
  first-wins ties — the same resolution as ``min()`` over the serial
  sweep dict, whose insertion order was the sorted grid;
- Figure 1 is one point per task, in task order.

Records may come fresh from workers or from any result store backend
(:mod:`repro.store`); all paths produce bit-identical aggregates
because floats survive the JSON round-trip exactly and every fold is
ordered by the *task list*, never by store layout.

Aggregation is *streaming*: the folds consume one record at a time and
keep only the few scalars a row/point needs, so they work over
``iter_records()`` of a partial multi-GB store without materializing
it — that is what :func:`aggregate_table1_store` /
:func:`aggregate_figure1_store` do, matching records to tasks by
content hash as they stream past.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.campaign.spec import TaskSpec
from repro.sim.engine import RunStatistics
from repro.sim.results import Figure1Point, Table1Row
from repro.store import opened_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.protocol import StoreBackend

__all__ = [
    "stats_from_record",
    "aggregate_table1",
    "aggregate_figure1",
    "aggregate_table1_store",
    "aggregate_figure1_store",
    "records_for_tasks",
]


def stats_from_record(record: dict) -> RunStatistics:
    """Rehydrate a record's ``"stats"`` payload into RunStatistics.

    Records written before the adaptive layer existed lack the CI
    fields; the dataclass defaults (``None``) absorb them.
    """
    return RunStatistics(**record["stats"])


def _stats_ci(stats: RunStatistics) -> "tuple[float, float] | None":
    """CI bounds on the mean time for a record's statistics.

    Prefers the bounds stored by the engine (fixed runs carry a 95% CI,
    adaptive runs the CI at their policy's confidence); records from
    before the adaptive layer derive a 95% CI from std/reps.  ``None``
    when ``reps < 2`` — a single repetition has no error estimate.
    """
    if stats.ci_low is not None and stats.ci_high is not None:
        return (stats.ci_low, stats.ci_high)
    if stats.reps > 1:
        from repro.adaptive import ci_bounds
        from repro.sim.engine import DEFAULT_CONFIDENCE

        return ci_bounds(
            stats.mean_time, stats.std_time, stats.reps, DEFAULT_CONFIDENCE
        )
    return None


def _paired(tasks: "list[TaskSpec]", records: "Iterable[dict]", experiment: str):
    records = list(records)
    if len(tasks) != len(records):
        raise ValueError(f"{len(tasks)} tasks but {len(records)} records")
    for task, rec in zip(tasks, records):
        if rec is None:
            raise ValueError(f"missing record for task {task.task_hash()}")
        if rec.get("kind") == "quarantine":
            raise ValueError(
                f"task {task.task_hash()[:16]}… was quarantined after "
                f"{rec.get('attempts')} attempt(s) ({rec.get('error')}); "
                "aggregate the store with partial=True, or clear it with "
                "`repro store compact --drop-quarantined` and re-run"
            )
        if task.experiment != experiment:
            raise ValueError(
                f"expected {experiment!r} tasks, got {task.experiment!r}"
            )
        yield task, rec


class _Table1Fold:
    """Incremental Table-1 fold: one (task, record) pair at a time.

    Holds per group only what a :class:`Table1Row` needs — the
    ``s → mean_time`` sweep and the first task/record's metadata —
    never the record payloads.  Pair order is the task list's order,
    so ties and group order are independent of where records came
    from.
    """

    def __init__(self) -> None:
        self._groups: "dict[tuple, dict]" = {}

    def add(self, task: TaskSpec, rec: dict) -> None:
        key = (task.uid, task.method, task.scheme)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = {
                "sweep": {},
                "extras": {},
                "n": rec["n"],
                "density": rec["density"],
                "s_model": task.s_model,
                "reps": task.reps,
            }
        # Duplicate s within a group keeps the last pair, matching the
        # historical dict-of-stats construction.
        group["sweep"][task.s] = rec["stats"]["mean_time"]
        stats = stats_from_record(rec)
        group["extras"][task.s] = (_stats_ci(stats), stats.reps)

    def rows(self) -> "list[Table1Row]":
        rows: "list[Table1Row]" = []
        for (uid, method, scheme), g in self._groups.items():
            sweep = g["sweep"]
            s_model = g["s_model"]
            if s_model not in sweep:
                raise ValueError(
                    f"matrix {uid} / {method} / {scheme}: model interval "
                    f"{s_model} missing from sweep {sorted(sweep)}"
                )
            s_best = min(sweep, key=lambda s: sweep[s])
            ci = g["extras"][s_model][0]
            rows.append(
                Table1Row(
                    uid=uid,
                    n=g["n"],
                    density=g["density"],
                    scheme=scheme,
                    s_model=s_model,
                    time_model=sweep[s_model],
                    s_best=s_best,
                    time_best=sweep[s_best],
                    reps=g["reps"],
                    method=method,
                    ci_low=ci[0] if ci else None,
                    ci_high=ci[1] if ci else None,
                    reps_used=sum(used for _, used in g["extras"].values()),
                    reps_cap=g["reps"] * len(g["extras"]),
                )
            )
        return rows


def aggregate_table1(
    tasks: "list[TaskSpec]", records: "Iterable[dict]"
) -> "list[Table1Row]":
    """Fold an interval-sweep campaign into Table-1 rows.

    One row per (matrix, method, scheme) group, in first-appearance
    order.  ``s*`` is the interval with the smallest mean time; ``s̃``
    and its measured time come from the group's ``s_model``, which must
    be one of the swept intervals.
    """
    fold = _Table1Fold()
    for task, rec in _paired(tasks, records, "table1"):
        fold.add(task, rec)
    return fold.rows()


def aggregate_figure1(
    tasks: "list[TaskSpec]", records: "Iterable[dict]"
) -> "list[Figure1Point]":
    """Fold a scheme-comparison campaign into Figure-1 points (one per
    task, task order)."""
    points: "list[Figure1Point]" = []
    for task, rec in _paired(tasks, records, "figure1"):
        points.append(_figure1_point(task, rec))
    return points


def _figure1_point(task: TaskSpec, rec: dict) -> Figure1Point:
    stats = stats_from_record(rec)
    ci = _stats_ci(stats)
    return Figure1Point(
        uid=task.uid,
        scheme=task.scheme,
        alpha=task.alpha,
        mean_time=stats.mean_time,
        # A single repetition has no error estimate: None renders as
        # "±n/a" (a 0.0 here would claim a *zero* standard error).
        sem_time=stats.sem_time if stats.reps > 1 else None,
        s_used=task.s,
        d_used=task.d,
        method=task.method,
        ci_low=ci[0] if ci else None,
        ci_high=ci[1] if ci else None,
        reps_used=stats.reps,
        reps_cap=task.reps,
    )


# ----------------------------------------------------------------------
# streaming over a store
# ----------------------------------------------------------------------
def records_for_tasks(
    tasks: "list[TaskSpec]",
    store: "StoreBackend | str",
    *,
    partial: bool = False,
) -> "list[dict | None]":
    """Stream a store once and return records aligned with ``tasks``.

    Only records the tasks name are kept (memory is proportional to
    the task list, not the store); duplicates resolve last-wins.  A
    task without a record raises ``ValueError`` unless ``partial=True``
    leaves a ``None`` hole — the tolerance a report over a
    still-running or crashed campaign needs.  ``kind="quarantine"``
    records (:mod:`repro.chaos`) carry no result payload, so they fold
    like missing records: a hole under ``partial=True``, an error —
    naming the quarantine — otherwise.  A store named by URL is closed
    again before returning.
    """
    wanted: "dict[str, list[int]]" = {}
    for i, task in enumerate(tasks):
        wanted.setdefault(task.task_hash(), []).append(i)
    out: "list[dict | None]" = [None] * len(tasks)
    with opened_store(store) as store:
        for rec in store.iter_records():
            slots = wanted.get(rec.get("hash"))
            if slots is not None:
                for i in slots:
                    out[i] = rec  # duplicates: last wins
    quarantined = 0
    for i, rec in enumerate(out):
        if rec is not None and rec.get("kind") == "quarantine":
            out[i] = None
            quarantined += 1
    if not partial:
        missing = [tasks[i].task_hash() for i, r in enumerate(out) if r is None]
        if missing:
            raise ValueError(
                f"store {store.url} is missing {len(missing)} record(s) "
                f"for this campaign (first: {missing[0][:16]}…"
                + (f"; {quarantined} quarantined" if quarantined else "")
                + "); pass partial=True to aggregate what exists"
            )
    return out


def aggregate_table1_store(
    tasks: "list[TaskSpec]",
    store: "StoreBackend | str",
    *,
    partial: bool = False,
) -> "list[Table1Row]":
    """Fold Table-1 rows straight out of a result store (streaming).

    With ``partial=True``, groups whose sweep is incomplete (any
    interval's record missing, or the model interval absent) are
    skipped instead of raising — aggregate what a half-finished
    campaign already proves, recompute the rest later.
    """
    records = records_for_tasks(tasks, store, partial=partial)
    if not partial:
        return aggregate_table1(tasks, records)
    complete: "dict[tuple, bool]" = {}
    for task, rec in zip(tasks, records):
        key = (task.uid, task.method, task.scheme)
        complete[key] = complete.get(key, True) and rec is not None
    fold = _Table1Fold()
    for task, rec in zip(tasks, records):
        if complete[(task.uid, task.method, task.scheme)]:
            fold.add(task, rec)
    return fold.rows()


def aggregate_figure1_store(
    tasks: "list[TaskSpec]",
    store: "StoreBackend | str",
    *,
    partial: bool = False,
) -> "list[Figure1Point]":
    """Fold Figure-1 points straight out of a result store (streaming).

    With ``partial=True``, tasks without a record are simply absent
    from the returned points (task order otherwise preserved).
    """
    records = records_for_tasks(tasks, store, partial=partial)
    if not partial:
        return aggregate_figure1(tasks, records)
    return [
        _figure1_point(task, rec)
        for task, rec in zip(tasks, records)
        if rec is not None
    ]
