"""Campaign execution with ordered results.

The executor maps a list of :class:`~repro.campaign.spec.TaskSpec`
over worker processes and returns one result record per task, in task
order, regardless of completion order.  Correctness never depends on
scheduling: each task derives its RNG streams from its own identity
(see :mod:`repro.campaign.spec`), so ``jobs=N`` is bit-identical to
``jobs=1``.  ``jobs=1`` (the library default) runs inline in the
calling process; ``jobs=N`` and lease mode (``lease_ttl=``, behind
``repro serve``) run on the supervised worker fleet of
:mod:`repro.campaign.serve`, whose workers rebuild matrices from
``(uid, scale)`` through the process-local
:func:`~repro.sim.matrices.get_matrix` cache.  In every mode the
calling process is the store's only writer.

A task is executed in exactly one place: :func:`run_task` →
:func:`repro.chaos.run_guarded` → :func:`execute_task` → the
repetition loop (:func:`repro.sim.engine.repeat_run`).  The serial
loop and the fleet's workers differ only in who calls ``run_task``
(with one picklable :class:`TaskContext`) and who delivers the record.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import TaskSpec
from repro.obs.metrics import METRICS, diff_snapshots, merge_snapshots
from repro.sim.matrices import SizeFacts, get_matrix, matrix_source
from repro.store import open_store
from repro.store.protocol import append_many

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos import ChaosPolicy, RetryPolicy
    from repro.store.protocol import StoreBackend

__all__ = [
    "default_jobs",
    "execute_task",
    "run_campaign",
    "run_task",
    "TaskContext",
    "TELEMETRY_SCHEMA",
    "PARTIAL_SCHEMA",
    "partial_hash",
    "make_partial_record",
    "load_partials",
]

#: Schema version stamped into ``telemetry`` store records.
TELEMETRY_SCHEMA: int = 1

#: Schema version stamped into ``partial`` (adaptive progress) records.
PARTIAL_SCHEMA: int = 1

#: Per-process JSONL trace shards, keyed by trace directory.  Each
#: entry remembers the pid that opened it: a forked worker inherits the
#: parent's dict (and possibly an open file handle), and writing the
#: parent's shard from two processes would interleave corruptly — the
#: pid check makes every process open its own ``shard-<pid>.jsonl``.
_WORKER_TRACERS: "dict[str, tuple[int, object]]" = {}


def _worker_tracer(trace_dir):
    from repro.obs.tracer import JsonlTracer

    key = str(trace_dir)
    pid = os.getpid()
    entry = _WORKER_TRACERS.get(key)
    if entry is None or entry[0] != pid:
        tracer = JsonlTracer(Path(trace_dir) / f"shard-{pid}.jsonl")
        _WORKER_TRACERS[key] = (pid, tracer)
        return tracer
    return entry[1]


def partial_hash(task_hash: str) -> str:
    """Store hash of a task's partial-progress record.

    Namespaced like telemetry records (``"partial:<task hash>"``), so
    it can never collide with a task content hash and resume-by-hash
    ignores it; unlike telemetry it is deterministic per task, so the
    store's last-wins fold keeps only the newest partial.
    """
    return f"partial:{task_hash}"


def make_partial_record(task_hash: str, per_rep: dict) -> dict:
    """Partial-progress record for an adaptive task (``kind="partial"``).

    Carries the per-repetition payload lists
    (:data:`repro.sim.results.PER_REP_KEYS`) of every completed
    repetition; the values JSON round-trip exactly, so a resumed run
    continues bit-identically.  Superseded by the task's final record
    (``repro store compact`` drops a partial once the final exists).
    """
    return {
        "hash": partial_hash(task_hash),
        "kind": "partial",
        "schema": PARTIAL_SCHEMA,
        "task_hash": task_hash,
        "reps_done": len(per_rep["times"]),
        "per_rep": {k: list(v) for k, v in per_rep.items()},
    }


def load_partials(store, task_hashes: "set[str]") -> "dict[str, dict]":
    """Stream the store once and return per-rep payloads of the newest
    partial record for each wanted task hash (absent hashes are simply
    missing from the result)."""
    if not task_hashes:
        return {}
    wanted = {partial_hash(h): h for h in task_hashes}
    newest: "dict[str, dict]" = {}
    for rec in store.iter_records():
        h = wanted.get(rec.get("hash", ""))
        if h is not None and rec.get("kind") == "partial":
            newest[h] = rec  # iteration order == append order: last wins
    return {h: rec["per_rep"] for h, rec in newest.items()}


def _telemetry_state() -> dict:
    """Cumulative observability counters for this process, with the
    workspace's hot-path attribute counters folded in (they are plain
    attributes, not METRICS entries — see ``SolveWorkspace.buffer``)."""
    from repro.perf import default_workspace

    snap = METRICS.snapshot()
    ws = default_workspace()
    c = snap["counters"]
    for key, value in (
        ("workspace.buffer_requests", ws.buffer_requests),
        ("workspace.buffer_allocs", ws.buffer_allocs),
    ):
        if value:
            c[key] = c.get(key, 0) + value
    return snap


def _telemetry_delta(base: dict) -> dict:
    """This process's metric movement since ``base``, stamped with its
    pid.  Diffing (rather than reading totals) keeps values a forked
    worker inherited from its parent out of campaign telemetry."""
    delta = diff_snapshots(_telemetry_state(), base)
    delta["pid"] = os.getpid()
    return delta


def telemetry_record(parts: "list[dict]", **fields) -> dict:
    """The ``kind="telemetry"`` store record for the merged metric
    deltas ``parts``; ``fields`` (``jobs``, ``workers``, ``fresh``,
    ``cached`` — lease-mode dispatchers lead with ``owner``) sit between
    the schema stamp and the merged counters, in call order."""
    merged = merge_snapshots(parts)
    return {
        "hash": f"telemetry:{uuid.uuid4().hex}",
        "kind": "telemetry",
        "schema": TELEMETRY_SCHEMA,
        **fields,
        "counters": merged["counters"],
        "timers": merged["timers"],
    }


def default_jobs() -> int:
    """Default worker count: every core this process may schedule on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def execute_task(
    task: TaskSpec,
    *,
    reuse_workspace: bool = True,
    trace_dir=None,
    prior: "dict | None" = None,
    partial_store=None,
) -> dict:
    """Run one task to completion and return its JSON-ready record.

    This is the worker entry point — a module-level function so it
    pickles under every multiprocessing start method.  The record
    schema is::

        {"hash": <task content hash>,
         "task": <TaskSpec fields>,
         "n": <matrix dimension>, "density": <matrix density>,
         "matrix_source": "synthetic" | <resolved .mtx path>,
         "stats": <RunStatistics fields>}

    ``matrix_source`` is provenance, not identity: the task hash
    ignores the ``REPRO_MATRIX_DIR`` environment, so this field is how
    a store reader distinguishes synthetic-suite records from
    real-matrix ones (don't resume one as the other).

    ``reuse_workspace`` routes every repetition through the process's
    shared workspace, :func:`repro.perf.default_workspace`: one per
    worker, reused across every task it executes — repetitions restore
    the live matrix by strike-undo instead of recopying, and buffers
    survive task boundaries.  ``False`` runs every solve on a private
    workspace (no trajectory memo, no checksum cache).  The task's
    content hash covers only the physics, so stores stay compatible
    across the switch, and results are bit-identical either way.

    ``trace_dir`` appends every solve event of this task to the
    process's ``shard-<pid>.jsonl`` in that directory (crash-safe,
    one JSON object per line), with the task's content hash bound into
    each event as ``"task"`` — tracing is pure observation, so the
    record is byte-identical with or without it.

    For adaptive tasks (``task.sampling`` set) the repetition loop runs
    under the task's :class:`repro.adaptive.SamplingPolicy`:
    ``prior`` is a per-rep payload recovered from a ``kind="partial"``
    store record (completed repetitions are not re-executed), and
    ``partial_store`` — any sink with ``append(record)``: the
    campaign's store, or a ``--jobs`` worker's pipe to its dispatcher —
    receives a partial-progress record after every policy batch, so a
    crash mid-task loses at most one batch of repetitions.  Both are
    ignored for fixed-count tasks.
    """
    _, perf, engine = _task_modules()
    task_hash = task.task_hash()
    tracer = None
    if trace_dir is not None:
        tracer = _worker_tracer(trace_dir)
        tracer.context["task"] = task_hash
    # The matrix is looked up per task (get_matrix caches it, and a
    # cache clear or a REPRO_MATRIX_DIR change must be seen); what is
    # built from it is keyed by its size facts, never by the object.
    a = get_matrix(task.uid, task.scale)
    b = engine.make_rhs(a)
    cfg = _scheme_config(task.scheme, task.s, task.d, (a.nrows, a.nnz, a.memory_words))
    policy = on_batch = None
    if task.sampling:
        policy = _sampling_policy(task.sampling)
        if partial_store is not None:

            def on_batch(per_rep):
                partial_store.append(make_partial_record(task_hash, per_rep))

    try:
        with METRICS.time_section("campaign.task_s"):
            stats = engine.repeat_run(
                a,
                b,
                cfg,
                alpha=task.alpha,
                reps=task.reps,
                policy=policy,
                prior=prior if policy else None,
                on_batch=on_batch,
                base_seed=task.base_seed,
                labels=task.labels,
                eps=task.eps,
                method=task.method,
                reuse_workspace=reuse_workspace,
                workspace=perf.default_workspace() if reuse_workspace else None,
                backend=task.backend,
                tracer=tracer,
            )
    finally:
        if tracer is not None:
            tracer.context.pop("task", None)
    METRICS.inc("campaign.tasks")
    return {
        "hash": task_hash,
        "task": task.to_json(),
        "n": a.nrows,
        "density": a.density,
        "matrix_source": matrix_source(task.uid, task.scale),
        "stats": stats.to_json(),
    }


@lru_cache(maxsize=None)
def _task_modules():
    """``(repro.chaos, repro.perf, repro.sim.engine)``, imported by this
    process's first task: compiling or resuming a campaign loads
    neither NumPy nor the harness (``tests/test_import_budget.py``), so
    they are no module imports."""
    import repro.chaos
    import repro.perf
    import repro.sim.engine

    return repro.chaos, repro.perf, repro.sim.engine


@lru_cache(maxsize=None)
def _cost_model(facts: "tuple[int, int, int]"):
    """:meth:`~repro.core.methods.CostModel.from_matrix` of a matrix with
    these ``(nrows, nnz, memory_words)``: the model reads nothing else."""
    from repro.core.methods import CostModel

    return CostModel.from_matrix(SizeFacts(*facts))


@lru_cache(maxsize=None)
def _scheme_config(scheme: str, s: int, d: int, facts: "tuple[int, int, int]"):
    """The frozen :class:`~repro.core.methods.SchemeConfig` of a task,
    one per distinct (scheme, s, d, cost model) in this process."""
    from repro.core.methods import Scheme, SchemeConfig

    return SchemeConfig(
        Scheme.parse(scheme),
        checkpoint_interval=s,
        verification_interval=d,
        costs=_cost_model(facts),
    )


@lru_cache(maxsize=None)
def _sampling_policy(spec: str):
    """The frozen :class:`~repro.adaptive.SamplingPolicy` a task's
    ``sampling`` string parses to."""
    from repro.adaptive import SamplingPolicy

    return SamplingPolicy.parse(spec)


@dataclass(frozen=True)
class TaskContext:
    """Everything one task execution needs besides the task itself:
    built once per campaign and handed — pickled, for fleet workers —
    to every :func:`run_task` call."""

    reuse_workspace: bool = True
    #: Directory of per-process JSONL trace shards (``None`` = off).
    trace_dir: "str | None" = None
    retry: "RetryPolicy | None" = None
    chaos: "ChaosPolicy | None" = None
    #: Per-rep payloads of adaptive tasks' newest partial records, by
    #: task hash (see :func:`load_partials`).
    priors: "dict[str, dict]" = field(default_factory=dict)
    #: Sink for adaptive partial-progress records (anything with
    #: ``append(record)``: a store, a worker's pipe), or ``None``.
    partial_store: "StoreBackend | None" = None


def run_task(task: TaskSpec, ctx: TaskContext) -> dict:
    """Execute one task under ``ctx`` and return its record — the one
    place a campaign task runs, whichever scheduler owns it.

    Always goes through :func:`repro.chaos.run_guarded`, which *is*
    :func:`execute_task` (this module's global, looked up per call)
    when neither a retry nor a chaos policy is armed.
    """
    run_guarded = _task_modules()[0].run_guarded
    return run_guarded(
        task,
        execute=execute_task,
        retry=ctx.retry,
        chaos=ctx.chaos,
        tracer=None if ctx.trace_dir is None else _worker_tracer(ctx.trace_dir),
        reuse_workspace=ctx.reuse_workspace,
        trace_dir=ctx.trace_dir,
        prior=ctx.priors.get(task.task_hash()) if task.sampling else None,
        partial_store=ctx.partial_store,
    )


def run_campaign(
    tasks: "Iterable[TaskSpec]",
    *,
    jobs: "int | None" = None,
    store: "StoreBackend | str | os.PathLike[str] | None" = None,
    progress: "ProgressReporter | None" = None,
    reuse_workspace: bool = True,
    trace_dir: "str | os.PathLike[str] | None" = None,
    task_timeout: "float | None" = None,
    retries: int = 0,
    chaos: "ChaosPolicy | str | None" = None,
    lease_ttl: "float | None" = None,
) -> "list[dict]":
    """Execute every task, reusing stored results, and return records
    aligned with ``tasks``.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` → :func:`default_jobs`, ``1`` →
        serial in-process execution.  More than one runs the
        supervised fleet (:func:`repro.campaign.serve.run_fleet`).
    store:
        Optional result store — a :class:`~repro.store.protocol
        .StoreBackend` instance or a URL-style selector resolved by
        :func:`repro.store.open_store` (bare path → single-file JSONL,
        ``sharded:dir`` → hash-partitioned JSONL shards,
        ``sqlite:file.db`` → WAL-mode SQLite).  Tasks whose hash is already present are
        served from the store without recomputation; fresh results are
        appended as they complete, by this process only.  Resume
        matching streams over the store, so pointing a small campaign
        at a multi-GB store does not materialize it.
    progress:
        Optional reporter; cache hits and fresh completions are both
        counted.
    reuse_workspace:
        Run repetitions through per-worker solve workspaces (the
        zero-copy hot path).  ``False`` runs every solve on a private
        workspace of its own.  Records are bit-identical either way.
    trace_dir:
        Optional directory receiving one crash-safe JSONL trace shard
        per worker process (``shard-<pid>.jsonl``; serial runs write
        one shard for the calling process).  Events carry the task
        hash, so ``repro trace summarize`` regroups shards per task
        regardless of scheduling.
    task_timeout, retries:
        Self-healing knobs (``docs/DESIGN.md`` §10; both off by
        default, in which case :func:`repro.chaos.run_guarded` is a
        plain call of :func:`execute_task`).  ``task_timeout`` is a
        per-attempt wall-clock deadline in seconds; ``retries`` bounds
        re-attempts of a failing / timed-out task with exponential
        backoff.  A task that exhausts its attempts is *quarantined*:
        a structured ``kind="quarantine"`` record is stored under its
        hash, the campaign completes, and the ``campaign.quarantined``
        metric counts it.  Without them a raising task propagates.
    chaos:
        Deterministic fault injection (:class:`repro.chaos
        .ChaosPolicy`, a spec string, or ``None`` → the
        ``REPRO_CHAOS`` environment gate).  Faults only fire in worker
        processes, whose crashes the fleet supervisor heals.
    lease_ttl:
        Lease mode, behind ``repro serve``: claim each task in
        ``store``'s lease board (``sqlite:``, the one shipped backend
        with leases) before a worker runs it, so several dispatchers
        may share one store.
        The TTL is how long a dispatcher may go silent (it heartbeats
        every ``lease_ttl / 3``) before its peers take its claimed
        tasks over.  Lease mode always runs the worker fleet, even at
        ``jobs=1``.

    Notes
    -----
    When a ``store`` is given and fresh tasks ran, one ``telemetry``
    record (``kind="telemetry"``, hash ``"telemetry:<uuid>"``) is
    appended after the task records: the merged per-worker metric
    deltas for this campaign (engine counters, cache hit/miss, phase
    time units, task timer); in lease mode it carries the dispatcher's
    ``owner`` id, and records adopted from peers count as ``cached``.
    The hash namespace cannot collide with task content hashes, so
    resume-by-hash is unaffected.
    ``SIGINT``/``SIGTERM`` drain a ``jobs > 1`` campaign: what the
    workers hand back is persisted, telemetry included, and
    :class:`repro.campaign.serve.ServeInterrupted` is raised.
    """
    from repro.chaos import resolve_chaos, resolve_retry

    tasks = list(tasks)
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    retry = resolve_retry(retries=retries, task_timeout=task_timeout)
    chaos = resolve_chaos(chaos)
    own_store = False
    if store is not None and isinstance(store, (str, os.PathLike)):
        store = open_store(store)
        own_store = True

    try:
        leases = None
        if lease_ttl is not None:
            from repro.campaign.serve import Leases

            leases = Leases(store, lease_ttl)
        done = store.resume(tasks)[0] if store is not None else {}
        results: "list[dict | None]" = [None] * len(tasks)
        pending: "list[tuple[int, TaskSpec]]" = []
        for i, task in enumerate(tasks):
            rec = done.get(task.task_hash())
            if rec is not None:
                results[i] = rec
                if progress is not None:
                    progress.update(cached=True)
            else:
                pending.append((i, task))

        counts = {"fresh": 0, "cached": len(tasks) - len(pending)}

        def deliver(indices: "list[int]", records: "list[dict]", fresh: bool = True) -> None:
            """Slot ``records`` in; only ``fresh`` ones (not settled by a
            lease-mode peer) are appended."""
            if store is not None and fresh:
                append_many(store, records)
            for index, record in zip(indices, records):
                results[index] = record
                if progress is not None:
                    progress.update(cached=not fresh)
            counts["fresh" if fresh else "cached"] += len(records)

        # Adaptive tasks: recover partial progress (completed reps of
        # tasks whose final record never landed) in one store pass.
        priors: "dict[str, dict]" = {}
        if store is not None:
            priors = load_partials(
                store, {t.task_hash() for _, t in pending if t.sampling}
            )
        ctx = TaskContext(
            reuse_workspace=reuse_workspace,
            trace_dir=None if trace_dir is None else os.fspath(trace_dir),
            retry=retry,
            chaos=chaos,
            priors=priors,
            partial_store=store,
        )
        telemetry_parts: "list[dict]" = []
        signum = None
        try:
            if pending and leases is None and (jobs == 1 or len(pending) == 1):
                telemetry_parts = [_run_serial(pending, ctx, deliver)]
            elif pending:
                from repro.campaign.serve import run_fleet

                # Compiling loads no NumPy, so load the rep loop and the
                # matrix generator here, once: the forked workers inherit
                # them instead of each importing its own copy.
                import repro.sim.engine  # noqa: F401
                import repro.sparse.generators  # noqa: F401

                workers = min(jobs, len(pending))
                telemetry_parts, signum = run_fleet(workers, pending, ctx, deliver, leases)
        finally:
            # Terminate the \r status line even when a task raised, so
            # the traceback doesn't print on top of it.
            if progress is not None:
                progress.finish()
        if store is not None and telemetry_parts:
            owner = {} if leases is None else {"owner": leases.owner}
            store.append(
                telemetry_record(
                    telemetry_parts,
                    **owner,
                    jobs=jobs,
                    workers=len({p.get("pid") for p in telemetry_parts}),
                    **counts,
                )
            )
        if signum is not None:
            from repro.campaign.serve import ServeInterrupted

            raise ServeInterrupted(signum)
        _count_quarantined(results)
        return results  # type: ignore[return-value]
    finally:
        if own_store and store is not None:
            store.close()


def _count_quarantined(records: "list[dict | None]") -> None:
    quarantined = sum(1 for rec in records if rec and rec.get("kind") == "quarantine")
    if quarantined:
        METRICS.inc("campaign.quarantined", quarantined)


def _run_serial(
    todo: "list[tuple[int, TaskSpec]]", ctx: TaskContext, deliver
) -> dict:
    """Run ``todo`` inline in this process; returns its telemetry delta."""
    base = _telemetry_state()
    for i, task in todo:
        deliver([i], [run_task(task, ctx)])
    if ctx.trace_dir is not None:
        # Release the shard's fd; the cached tracer lazily reopens
        # (append) if this process runs another traced campaign over
        # the same dir.
        _worker_tracer(ctx.trace_dir).close()
    return _telemetry_delta(base)
