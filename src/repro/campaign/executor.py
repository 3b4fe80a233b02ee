"""Process-pool campaign execution with ordered results.

The executor maps a list of :class:`~repro.campaign.spec.TaskSpec`
over worker processes and returns one result record per task, in task
order, regardless of completion order.  Correctness never depends on
scheduling: each task derives its RNG streams from its own identity
(see :mod:`repro.campaign.spec`), so ``jobs=N`` is bit-identical to
``jobs=1``.

Design notes
------------
- Workers receive only the tiny ``TaskSpec``; matrices are rebuilt
  inside the worker from ``(uid, scale)`` through the process-local
  :func:`~repro.sim.matrices.get_matrix` cache, so a worker that runs
  a whole sweep of intervals for one matrix builds it once.
- Scheduling is chunked (``~4`` chunks per worker) so pool IPC costs
  amortize over many short tasks while the tail stays balanced.
- Each chunk is its own future, persisted to the optional
  :class:`~repro.store.protocol.StoreBackend` *as it completes* — a
  slow chunk never holds finished results hostage in parent memory,
  so a crash loses at most the chunks still in flight.  The returned
  record list is reassembled in task order regardless.
- ``jobs=1`` (the library default) runs everything inline in the
  calling process — no pool, no pickling, same records.
"""

from __future__ import annotations

import math
import os
import uuid
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import TaskSpec
from repro.obs.metrics import METRICS, diff_snapshots, merge_snapshots
from repro.store import open_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos import ChaosPolicy, RetryPolicy
    from repro.store.protocol import StoreBackend

__all__ = [
    "default_jobs",
    "execute_task",
    "run_campaign",
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

#: Target chunks per worker: small enough to balance the tail, large
#: enough to amortize pickling/IPC over many sub-second tasks.
CHUNKS_PER_WORKER: int = 4

#: How many times a *hardened* campaign (retries / --task-timeout /
#: chaos enabled) rebuilds a broken process pool before degrading to
#: serial in-process execution.  Unhardened campaigns keep the legacy
#: behavior: a broken pool propagates.
MAX_POOL_RESTARTS: int = 3

#: Per-process solve workspace (see :mod:`repro.perf`): one per worker,
#: reused across every task the worker executes — repetitions restore
#: the live matrix by strike-undo instead of recopying, and buffers
#: survive task boundaries.  Created lazily so importing the executor
#: stays cheap.
_WORKER_WORKSPACE = None


def _worker_workspace():
    global _WORKER_WORKSPACE
    if _WORKER_WORKSPACE is None:
        from repro.perf import SolveWorkspace

        _WORKER_WORKSPACE = SolveWorkspace()
    return _WORKER_WORKSPACE


def release_worker_workspace() -> None:
    """Drop the worker workspace's held arrays (incl. its strong
    reference to the last task's matrix).  Part of the
    :func:`repro.perf.clear_caches` contract — without this, the
    workspace would pin the largest objects a memory-bounding clear is
    trying to free."""
    global _WORKER_WORKSPACE
    if _WORKER_WORKSPACE is not None:
        _WORKER_WORKSPACE.release()
    _WORKER_WORKSPACE = None


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


#: Per-process stores opened from a URL for partial-progress writes,
#: keyed by URL with the opening pid remembered (same fork-safety
#: rationale as ``_WORKER_TRACERS``: a forked worker must open its own
#: connection/handle, never reuse the parent's).
_WORKER_PARTIAL_STORES: "dict[str, tuple[int, object]]" = {}


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
    (:data:`repro.sim.engine.PER_REP_KEYS`) of every completed
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


def _resolve_partial_store(partial_store):
    """Resolve the partial sink: a live backend passes through (serial
    path); a URL opens one per-process cached backend (pool workers)."""
    if not isinstance(partial_store, str):
        return partial_store
    pid = os.getpid()
    entry = _WORKER_PARTIAL_STORES.get(partial_store)
    if entry is None or entry[0] != pid:
        entry = (pid, open_store(partial_store))
        _WORKER_PARTIAL_STORES[partial_store] = entry
    return entry[1]


def _telemetry_state() -> dict:
    """Cumulative observability counters for this process, with the
    workspace's hot-path attribute counters folded in (they are plain
    attributes, not METRICS entries — see ``SolveWorkspace.buffer``)."""
    snap = METRICS.snapshot()
    ws = _WORKER_WORKSPACE
    if ws is not None:
        c = snap["counters"]
        for key, value in (
            ("workspace.buffer_requests", ws.buffer_requests),
            ("workspace.buffer_allocs", ws.buffer_allocs),
        ):
            if value:
                c[key] = c.get(key, 0) + value
    return snap


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

    ``reuse_workspace`` routes every repetition through the worker's
    process-local :class:`repro.perf.SolveWorkspace` — results are
    bit-identical either way (the task's content hash covers only the
    physics, so stores stay compatible across the switch).

    ``trace_dir`` appends every solve event of this task to the
    process's ``shard-<pid>.jsonl`` in that directory (crash-safe,
    one JSON object per line), with the task's content hash bound into
    each event as ``"task"`` — tracing is pure observation, so the
    record is byte-identical with or without it.

    For adaptive tasks (``task.sampling`` set) the repetitions go
    through :func:`repro.sim.engine.repeat_run_batched` instead:
    ``prior`` is a per-rep payload recovered from a ``kind="partial"``
    store record (completed repetitions are not re-executed), and
    ``partial_store`` — a live backend (serial path) or a store URL
    (pool workers open their own per-process handle) — receives a
    partial-progress record after every policy batch, so a crash mid-
    task loses at most one batch of repetitions.  Both are ignored for
    fixed-count tasks.
    """
    from dataclasses import asdict

    from repro.adaptive import SamplingPolicy
    from repro.core.methods import CostModel, Scheme, SchemeConfig
    from repro.sim.engine import make_rhs, repeat_run, repeat_run_batched
    from repro.sim.matrices import get_matrix, matrix_source

    task_hash = task.task_hash()
    tracer = None
    if trace_dir is not None:
        tracer = _worker_tracer(trace_dir)
        tracer.context["task"] = task_hash
    a = get_matrix(task.uid, task.scale)
    b = make_rhs(a)
    costs = CostModel.from_matrix(a)
    cfg = SchemeConfig(
        Scheme.parse(task.scheme),
        checkpoint_interval=task.s,
        verification_interval=task.d,
        costs=costs,
    )
    common = dict(
        alpha=task.alpha,
        base_seed=task.base_seed,
        labels=task.labels,
        eps=task.eps,
        method=task.method,
        reuse_workspace=reuse_workspace,
        workspace=_worker_workspace() if reuse_workspace else None,
        backend=task.backend,
        tracer=tracer,
    )
    try:
        with METRICS.time_section("campaign.task_s"):
            if task.sampling:
                on_batch = None
                if partial_store is not None:
                    sink = _resolve_partial_store(partial_store)

                    def on_batch(per_rep, _sink=sink):
                        _sink.append(make_partial_record(task_hash, per_rep))

                stats = repeat_run_batched(
                    a,
                    b,
                    cfg,
                    policy=SamplingPolicy.parse(task.sampling),
                    prior=prior,
                    on_batch=on_batch,
                    **common,
                )
            else:
                stats = repeat_run(a, b, cfg, reps=task.reps, **common)
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
        "stats": asdict(stats),
    }


def run_campaign(
    tasks: "Iterable[TaskSpec]",
    *,
    jobs: "int | None" = None,
    store: "StoreBackend | str | os.PathLike[str] | None" = None,
    progress: "ProgressReporter | None" = None,
    chunksize: "int | None" = None,
    reuse_workspace: bool = True,
    trace_dir: "str | os.PathLike[str] | None" = None,
    task_timeout: "float | None" = None,
    retries: int = 0,
    retry_backoff: float = 0.05,
    chaos: "ChaosPolicy | str | None" = None,
) -> "list[dict]":
    """Execute every task, reusing stored results, and return records
    aligned with ``tasks``.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` → :func:`default_jobs`, ``1`` →
        serial in-process execution.
    store:
        Optional result store — a :class:`~repro.store.protocol
        .StoreBackend` instance or a URL-style selector resolved by
        :func:`repro.store.open_store` (bare path → single-file JSONL,
        ``sharded:dir`` → hash-partitioned shards, ``sqlite:file.db``
        → WAL-mode SQLite).  Tasks whose hash is already present are
        served from the store without recomputation; fresh results are
        appended as they complete.  Resume matching streams over the
        store, so pointing a small campaign at a multi-GB store does
        not materialize it.
    progress:
        Optional reporter; cache hits and fresh completions are both
        counted.
    chunksize:
        Tasks per pool chunk (``None`` → ``~4`` chunks per worker).
    reuse_workspace:
        Run repetitions through per-worker solve workspaces (the
        zero-copy hot path; bit-identical records).  ``False`` restores
        the historical fresh-allocation path.
    trace_dir:
        Optional directory receiving one crash-safe JSONL trace shard
        per worker process (``shard-<pid>.jsonl``; serial runs write
        one shard for the calling process).  Events carry the task
        hash, so ``repro trace summarize`` regroups shards per task
        regardless of scheduling.
    task_timeout, retries, retry_backoff:
        Self-healing knobs (``docs/DESIGN.md`` §10; all off by
        default, in which case execution takes the exact legacy code
        path).  ``task_timeout`` is a per-attempt wall-clock deadline
        in seconds; ``retries`` bounds re-attempts of a failing /
        timed-out task with exponential backoff starting at
        ``retry_backoff`` seconds.  A task that exhausts its attempts
        is *quarantined*: a structured ``kind="quarantine"`` record is
        stored under its hash, the campaign completes, and the
        ``campaign.quarantined`` metric counts it.
    chaos:
        Deterministic fault injection (:class:`repro.chaos
        .ChaosPolicy`, a spec string, or ``None`` → the
        ``REPRO_CHAOS`` environment gate).  Faults only fire in worker
        processes; a pool broken by injected (or real) crashes is
        rebuilt up to :data:`MAX_POOL_RESTARTS` times — with the
        chaos generation re-rolled so kill-fates converge — before the
        campaign degrades to serial in-process execution.

    Notes
    -----
    When a ``store`` is given and fresh tasks ran, one ``telemetry``
    record (``kind="telemetry"``, hash ``"telemetry:<uuid>"``) is
    appended after the task records: the merged per-worker metric
    deltas for this campaign (engine counters, cache hit/miss, phase
    time units, task timer).  The hash namespace cannot collide with
    task content hashes, so resume-by-hash is unaffected and readers
    that only look at task records skip it naturally.
    """
    from repro.chaos import resolve_chaos, resolve_retry

    tasks = list(tasks)
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    retry = resolve_retry(
        retries=retries, task_timeout=task_timeout, backoff=retry_backoff
    )
    chaos = resolve_chaos(chaos)
    own_store = False
    if store is not None and isinstance(store, (str, os.PathLike)):
        store = open_store(store)
        own_store = True

    try:
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

        # Adaptive tasks: recover partial progress (completed reps of
        # tasks whose final record never landed) in one store pass, and
        # pick the partial-record sink.  The serial path appends through
        # the already-open store; pool workers get the store URL and
        # open their own handle — only on multi-writer-safe backends
        # (supports_leases), so a single-file JSONL store is never
        # written by two processes at once (its pool runs simply flush
        # no mid-task partials).
        priors: "dict[str, dict]" = {}
        pool_partial_url = None
        if store is not None:
            adaptive = {t.task_hash() for _, t in pending if t.sampling}
            priors = load_partials(store, adaptive)
            if adaptive and store.supports_leases:
                pool_partial_url = store.url

        telemetry_parts: "list[dict]" = []
        try:
            if pending:
                if jobs == 1 or len(pending) == 1:
                    base = _telemetry_state()
                    _run_serial(
                        pending,
                        results,
                        store,
                        progress,
                        reuse_workspace,
                        trace_dir,
                        retry,
                        chaos,
                        priors,
                        store,
                    )
                    delta = diff_snapshots(_telemetry_state(), base)
                    delta["pid"] = os.getpid()
                    telemetry_parts.append(delta)
                    if trace_dir is not None:
                        # Release the shard's fd; the cached tracer
                        # lazily reopens (append) if this process runs
                        # another traced campaign over the same dir.
                        _worker_tracer(trace_dir).close()
                else:
                    telemetry_parts = _run_pool_supervised(
                        jobs,
                        pending,
                        chunksize,
                        results,
                        store,
                        progress,
                        reuse_workspace,
                        trace_dir,
                        retry,
                        chaos,
                        priors,
                        pool_partial_url,
                    )
        finally:
            # Terminate the \r status line even when a task raised, so
            # the traceback doesn't print on top of it.
            if progress is not None:
                progress.finish()
        if store is not None and telemetry_parts:
            merged = merge_snapshots(telemetry_parts)
            store.append(
                {
                    "hash": f"telemetry:{uuid.uuid4().hex}",
                    "kind": "telemetry",
                    "schema": TELEMETRY_SCHEMA,
                    "jobs": jobs,
                    "workers": len({p.get("pid") for p in telemetry_parts}),
                    "fresh": len(pending),
                    "cached": len(tasks) - len(pending),
                    "counters": merged["counters"],
                    "timers": merged["timers"],
                }
            )
        quarantined = sum(
            1
            for rec in results
            if rec is not None and rec.get("kind") == "quarantine"
        )
        if quarantined:
            METRICS.inc("campaign.quarantined", quarantined)
        return results  # type: ignore[return-value]
    finally:
        if own_store and store is not None:
            store.close()


def _run_serial(
    pending: "list[tuple[int, TaskSpec]]",
    results: "list[dict | None]",
    store: "StoreBackend | None",
    progress: "ProgressReporter | None",
    reuse_workspace: bool,
    trace_dir,
    retry: "RetryPolicy | None" = None,
    chaos: "ChaosPolicy | None" = None,
    priors: "dict[str, dict] | None" = None,
    partial_store=None,
) -> None:
    """Run pending tasks inline in this process, skipping any already
    delivered (pool-degradation re-runs pass a partially filled
    ``results``).  With no hardening knob set this is exactly the
    legacy serial loop."""
    priors = priors or {}

    def adaptive_kwargs(task: TaskSpec) -> dict:
        if not task.sampling:
            return {}
        return {
            "prior": priors.get(task.task_hash()),
            "partial_store": partial_store,
        }

    if retry is None and chaos is None:
        for i, task in pending:
            if results[i] is not None:
                continue
            _deliver(
                i,
                execute_task(
                    task,
                    reuse_workspace=reuse_workspace,
                    trace_dir=trace_dir,
                    **adaptive_kwargs(task),
                ),
                results,
                store,
                progress,
            )
        return
    from repro.chaos import run_guarded

    tracer = None if trace_dir is None else _worker_tracer(trace_dir)
    for i, task in pending:
        if results[i] is not None:
            continue
        record = run_guarded(
            task,
            retry=retry,
            chaos=chaos,
            tracer=tracer,
            reuse_workspace=reuse_workspace,
            trace_dir=trace_dir,
            **adaptive_kwargs(task),
        )
        _deliver(i, record, results, store, progress)


def _run_pool_supervised(
    jobs: int,
    pending: "list[tuple[int, TaskSpec]]",
    chunksize: "int | None",
    results: "list[dict | None]",
    store: "StoreBackend | None",
    progress: "ProgressReporter | None",
    reuse_workspace: bool,
    trace_dir,
    retry: "RetryPolicy | None",
    chaos: "ChaosPolicy | None",
    priors: "dict[str, dict] | None" = None,
    partial_url: "str | None" = None,
) -> "list[dict]":
    """:func:`_run_pool` under supervision: a hardened campaign
    (retry / timeout / chaos armed) that loses its pool to worker
    crashes rebuilds it — re-running only the undelivered tasks — up
    to :data:`MAX_POOL_RESTARTS` times, then degrades to serial
    in-process execution.  Unhardened campaigns keep the legacy
    contract: a broken pool propagates."""
    hardened = retry is not None or chaos is not None
    telemetry_parts: "list[dict]" = []
    todo = pending
    restarts = 0
    while True:
        try:
            telemetry_parts.extend(
                _run_pool(
                    jobs,
                    todo,
                    chunksize,
                    results,
                    store,
                    progress,
                    reuse_workspace,
                    trace_dir,
                    retry,
                    chaos,
                    priors,
                    partial_url,
                )
            )
            return telemetry_parts
        except BrokenProcessPool:
            if not hardened:
                raise
            todo = [(i, t) for i, t in pending if results[i] is None]
            if not todo:
                return telemetry_parts
            if store is not None and partial_url is not None:
                # Workers of the broken pool may have flushed newer
                # partials than the campaign-start scan saw; pick them
                # up so the rebuilt pool re-executes as little as
                # possible.
                adaptive = {t.task_hash() for _, t in todo if t.sampling}
                priors = load_partials(store, adaptive)
            restarts += 1
            METRICS.inc("campaign.pool_restarts")
            if restarts > MAX_POOL_RESTARTS:
                warnings.warn(
                    f"process pool broke {restarts} times; degrading to "
                    f"serial execution for the remaining {len(todo)} task(s)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                base = _telemetry_state()
                _run_serial(
                    todo,
                    results,
                    store,
                    progress,
                    reuse_workspace,
                    trace_dir,
                    retry,
                    chaos,
                    priors,
                    store,
                )
                delta = diff_snapshots(_telemetry_state(), base)
                delta["pid"] = os.getpid()
                telemetry_parts.append(delta)
                return telemetry_parts
            if chaos is not None:
                # Re-roll the injection draws for the rebuilt pool so a
                # kill-fated task cannot crash every successor pool too.
                chaos = chaos.with_generation(chaos.generation + 1)


def _run_pool(
    jobs: int,
    pending: "list[tuple[int, TaskSpec]]",
    chunksize: "int | None",
    results: "list[dict | None]",
    store: "StoreBackend | None",
    progress: "ProgressReporter | None",
    reuse_workspace: bool = True,
    trace_dir=None,
    retry: "RetryPolicy | None" = None,
    chaos: "ChaosPolicy | None" = None,
    priors: "dict[str, dict] | None" = None,
    partial_url: "str | None" = None,
) -> "list[dict]":
    """Fan pending tasks over a process pool, one future per chunk.

    Returns the per-chunk telemetry deltas of every chunk that
    completed (in completion order) for the caller to merge.
    """
    workers = min(jobs, len(pending))
    chunk = chunksize or max(1, math.ceil(len(pending) / (workers * CHUNKS_PER_WORKER)))
    groups = [pending[lo : lo + chunk] for lo in range(0, len(pending), chunk)]
    telemetry_parts: "list[dict]" = []
    trace_arg = None if trace_dir is None else os.fspath(trace_dir)
    priors = priors or {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(
                execute_chunk,
                [t for _, t in group],
                reuse_workspace,
                trace_arg,
                retry,
                chaos,
                # Ship only this chunk's priors across the pickle
                # boundary, and only when something adaptive is afoot.
                (
                    priors
                    and {
                        h: priors[h]
                        for _, t in group
                        if (h := t.task_hash()) in priors
                    }
                )
                or None,
                partial_url,
            ): group
            for group in groups
        }
        try:
            for fut in as_completed(futures):
                payload = fut.result()
                telemetry_parts.append(payload["telemetry"])
                for (i, _), rec in zip(futures[fut], payload["records"]):
                    _deliver(i, rec, results, store, progress)
        except BaseException:
            # Don't let the pool's __exit__ burn through every queued
            # chunk only to discard the results: cancel what hasn't
            # started, wait out what has, and persist any record that
            # finished cleanly before propagating the failure — those
            # survive for --resume.  The salvage itself is best-effort:
            # if persistence is what broke (disk full), the original
            # error must still be the one that propagates.
            pool.shutdown(wait=True, cancel_futures=True)
            try:
                for fut, group in futures.items():
                    if fut.done() and not fut.cancelled() and fut.exception() is None:
                        for (i, _), rec in zip(group, fut.result()["records"]):
                            if results[i] is None:  # not yet delivered
                                _deliver(i, rec, results, store, progress)
            except Exception:
                pass
            raise
    return telemetry_parts


def execute_chunk(
    tasks: "list[TaskSpec]",
    reuse_workspace: bool = True,
    trace_dir=None,
    retry: "RetryPolicy | None" = None,
    chaos: "ChaosPolicy | None" = None,
    priors: "dict[str, dict] | None" = None,
    partial_url: "str | None" = None,
) -> dict:
    """Worker entry point for one scheduling chunk (module-level so it
    pickles under every multiprocessing start method).

    Returns ``{"records": [...], "telemetry": {...}}`` — the task
    records in task order plus this chunk's metric delta.  Snapshots
    are diffed per chunk, so values a forked worker inherited from the
    parent process never leak into campaign telemetry.

    With a retry or chaos policy armed the chunk routes through
    :func:`repro.chaos.run_guarded` (deadline / retry / quarantine /
    injection); otherwise it is the plain legacy loop.  ``priors`` and
    ``partial_url`` carry adaptive-sampling resume payloads and the
    partial-record sink URL (see :func:`execute_task`).
    """
    base = _telemetry_state()
    priors = priors or {}

    def adaptive_kwargs(task: TaskSpec) -> dict:
        if not task.sampling:
            return {}
        return {
            "prior": priors.get(task.task_hash()),
            "partial_store": partial_url,
        }

    if retry is None and chaos is None:
        records = [
            execute_task(
                t,
                reuse_workspace=reuse_workspace,
                trace_dir=trace_dir,
                **adaptive_kwargs(t),
            )
            for t in tasks
        ]
    else:
        from repro.chaos import run_guarded

        tracer = None if trace_dir is None else _worker_tracer(trace_dir)
        records = [
            run_guarded(
                t,
                retry=retry,
                chaos=chaos,
                tracer=tracer,
                reuse_workspace=reuse_workspace,
                trace_dir=trace_dir,
                **adaptive_kwargs(t),
            )
            for t in tasks
        ]
    telemetry = diff_snapshots(_telemetry_state(), base)
    telemetry["pid"] = os.getpid()
    return {"records": records, "telemetry": telemetry}


def _deliver(
    index: int,
    record: dict,
    results: "list[dict | None]",
    store: "StoreBackend | None",
    progress: "ProgressReporter | None",
) -> None:
    """Persist one finished record, then slot it into place and count it.

    The store append comes first so ``results[index] is None`` remains
    a reliable "not yet durably delivered" test for crash salvage.
    """
    if store is not None:
        store.append(record)
    results[index] = record
    if progress is not None:
        progress.update()
