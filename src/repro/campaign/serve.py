"""Serve mode: a warm worker fleet multiplexing campaigns over leases.

``repro serve --store sharded:dir --workers N spec.json …`` runs a
*dispatcher* (the calling process) plus ``N`` long-lived worker
processes that pull tasks from a shared concurrent store instead of
being handed fixed chunks:

- every worker sees the same pending set (tasks whose hash is not in
  the store yet) and *claims* one at a time through the store's lease
  protocol (:mod:`repro.store.protocol`) before executing it;
- while a task runs, a background heartbeat thread keeps its lease
  fresh; a worker that dies mid-task simply stops heartbeating, and
  once the lease TTL passes any other worker **steals** the task and
  reruns it;
- the dispatcher *supervises* the fleet: a worker that exits with a
  nonzero status (crash, OOM kill, injected chaos) is restarted — up
  to ``max_worker_restarts`` times — so a campaign outlives its
  workers, not the other way around;
- ``SIGINT``/``SIGTERM`` drain the fleet gracefully: workers finish
  their in-flight task, append their telemetry, release their leases
  and exit 0, after which the dispatcher raises
  :class:`ServeInterrupted` (the CLI maps it to exit ``128+signum``);
- several dispatchers may serve different Studies against the *same*
  store concurrently — their workers interleave freely, because
  coordination lives entirely in the store.  That is how a warm fleet
  (per-process matrix / checksum caches, reusable workspaces — see
  :mod:`repro.perf`) is shared across campaigns.

Correctness never rests on the leases: they are advisory
duplicate-work suppression.  Task records are idempotent — a task's
result depends only on its content-hashed identity, so two workers
racing the same task append bit-identical records and last-wins
folding makes the race invisible.  A serve-mode run therefore
produces per-task results identical to ``--jobs 1``, even under
injected faults (``docs/DESIGN.md`` §10).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import uuid
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.executor import TaskContext
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.spec import TaskSpec
    from repro.chaos import ChaosPolicy
    from repro.store.protocol import StoreBackend

__all__ = ["ServeInterrupted", "serve_campaign", "serve_worker"]

#: How long a worker sleeps when every pending task is currently
#: leased by a live peer.
_IDLE_SLEEP_S = 0.05

#: How long the dispatcher waits for a draining worker to finish its
#: in-flight task before terminating it.
_DRAIN_JOIN_S = 30.0


class ServeInterrupted(RuntimeError):
    """The dispatcher was stopped by a signal after draining its fleet.

    Carries the ``signum`` so callers can re-exit conventionally
    (``128 + signum``, which the CLI does).
    """

    def __init__(self, signum: int) -> None:
        self.signum = int(signum)
        super().__init__(
            f"serve dispatcher interrupted by signal {self.signum}; "
            "workers drained"
        )


def _require_leases(store: "StoreBackend") -> None:
    from repro.store.protocol import LeaseUnsupported

    if not getattr(store, "supports_leases", False):
        raise LeaseUnsupported(
            f"store {getattr(store, 'url', store)!r} cannot coordinate "
            "concurrent workers; serve mode needs a sharded: or sqlite: "
            "store (or a custom backend with lease support)"
        )


def serve_campaign(
    tasks: "list[TaskSpec]",
    store: "StoreBackend | str | os.PathLike[str]",
    *,
    workers: int = 2,
    lease_ttl: float = 60.0,
    progress: "ProgressReporter | None" = None,
    reuse_workspace: bool = True,
    poll_interval: float = 0.1,
    task_timeout: "float | None" = None,
    retries: int = 0,
    chaos: "ChaosPolicy | str | None" = None,
    max_worker_restarts: "int | None" = None,
    trace_dir: "str | os.PathLike[str] | None" = None,
) -> "list[dict]":
    """Run ``tasks`` through a lease-coordinated worker fleet.

    The dispatcher spawns ``workers`` processes, waits for every task's
    record to appear in ``store`` (polling at ``poll_interval`` for
    progress reporting), and returns the records aligned with
    ``tasks`` — the same contract as
    :func:`repro.campaign.executor.run_campaign`, and bit-identical
    records to it.

    ``lease_ttl`` is the crash-detection horizon: a worker that stops
    heartbeating for this long loses its claims to the rest of the
    fleet.  Keep it comfortably above the longest single task; the
    heartbeat thread refreshes at ``lease_ttl / 3``.

    Hardening knobs (all off by default, ``docs/DESIGN.md`` §10):
    ``task_timeout`` / ``retries`` arm every worker's
    :func:`repro.chaos.run_guarded` (deadline → retry with backoff →
    quarantine record); ``chaos`` injects deterministic faults
    (:mod:`repro.chaos`) into the workers — never the dispatcher;
    ``max_worker_restarts`` caps fleet supervision (``None`` →
    ``4 * workers``).  Quarantine records among the results are
    counted into the ``campaign.quarantined`` metric.

    Tasks already present in the store are served from it without
    execution (serve mode *is* resume, like every store-backed
    campaign path).  A store named by URL is opened here and closed
    before returning; a store instance stays the caller's to close.
    """
    import multiprocessing

    from repro.campaign.executor import TaskContext, _worker_tracer
    from repro.chaos import resolve_chaos, resolve_retry
    from repro.obs.metrics import METRICS
    from repro.store import opened_store

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if lease_ttl <= 0:
        raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
    with opened_store(store) as store:
        _require_leases(store)
        retry = resolve_retry(retries=retries, task_timeout=task_timeout)
        chaos = resolve_chaos(chaos)
        restart_budget = (
            4 * workers if max_worker_restarts is None else int(max_worker_restarts)
        )

        tasks = list(tasks)
        done, pending = store.resume(tasks)
        if progress is not None:
            for _ in range(len(tasks) - len(pending)):
                progress.update(cached=True)
        if not pending:
            if progress is not None:
                progress.finish()
            return [done[t.task_hash()] for t in tasks]

        mp = multiprocessing.get_context()
        ctx = TaskContext(
            reuse_workspace=reuse_workspace,
            trace_dir=None if trace_dir is None else os.fspath(trace_dir),
            retry=retry,
            chaos=chaos,
        )

        def spawn(generation: int) -> "multiprocessing.Process":
            worker_ctx = ctx
            if chaos is not None:
                worker_ctx = replace(ctx, chaos=chaos.with_generation(generation))
            proc = mp.Process(
                target=serve_worker,
                args=(store.url, pending, lease_ttl, worker_ctx),
                name=f"repro-serve-g{generation}",
                daemon=True,
            )
            proc.start()
            return proc

        # Worker i starts in generation i; every restart gets a fresh
        # generation beyond the initial block, re-rolling its chaos draws
        # so an injected kill-fate cannot follow the restarted worker.
        procs = [spawn(i) for i in range(workers)]
        restarts = 0
        tracer = None if ctx.trace_dir is None else _worker_tracer(ctx.trace_dir)

        # Graceful shutdown: a signal sets the flag; the poll loop drains
        # the fleet and raises ServeInterrupted.  Signal handlers may only
        # be installed on the process main thread — elsewhere (tests
        # driving serve_campaign from a thread) drain-on-signal simply
        # isn't armed.
        interrupted: "list[int]" = []
        previous_handlers: "dict[int, object]" = {}
        if threading.current_thread() is threading.main_thread():

            def _on_signal(signum, frame):  # pragma: no cover - signal context
                interrupted.append(signum)

            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(signum, _on_signal)

        wanted = {t.task_hash() for t in pending}
        try:
            reported = 0
            while True:
                if interrupted:
                    _drain_fleet(procs)
                    raise ServeInterrupted(interrupted[0])
                missing = _missing_hashes(store, wanted)
                if progress is not None:
                    finished = len(wanted) - len(missing)
                    for _ in range(finished - reported):
                        progress.update()
                    reported = finished
                if not missing:
                    break
                # Supervision: restart crashed workers (nonzero exit — a
                # clean drain exits 0 and stays down) until the budget is
                # spent; after that the fleet is allowed to die off and the
                # all-dead check below reports what was lost.
                for i, proc in enumerate(procs):
                    if proc.is_alive() or not proc.exitcode:
                        continue
                    if restarts >= restart_budget:
                        continue
                    restarts += 1
                    METRICS.inc("campaign.worker_restarts")
                    if tracer is not None:
                        tracer.emit(
                            "worker-restart",
                            exitcode=proc.exitcode,
                            restarts=restarts,
                            name=proc.name,
                        )
                    procs[i] = spawn(workers + restarts - 1)
                if not any(p.is_alive() for p in procs):
                    raise RuntimeError(
                        f"all serve workers exited but {len(missing)} task(s) "
                        "never produced a record; see worker stderr"
                    )
                time.sleep(poll_interval)
            for proc in procs:
                proc.join()
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            if tracer is not None:
                tracer.close()
            if progress is not None:
                progress.finish()

        done, still_pending = store.resume(tasks)
        if still_pending:  # pragma: no cover - the poll loop above waits for all
            raise RuntimeError(f"{len(still_pending)} task(s) missing after serve")
        records = [done[t.task_hash()] for t in tasks]
        quarantined = sum(1 for r in records if r.get("kind") == "quarantine")
        if quarantined:
            METRICS.inc("campaign.quarantined", quarantined)
        return records


def _drain_fleet(procs) -> None:
    """Forward SIGTERM to every live worker and wait for the drain:
    each finishes its in-flight task, appends telemetry and exits 0."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()  # delivers SIGTERM -> worker drain handler
    deadline = time.monotonic() + _DRAIN_JOIN_S
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.kill()
            proc.join()


def _missing_hashes(store: "StoreBackend", wanted: "set[str]") -> "set[str]":
    present = set()
    for rec in store.iter_records():
        h = rec.get("hash")
        if h in wanted:
            present.add(h)
    return wanted - present


def serve_worker(
    store_url: str,
    tasks: "list[TaskSpec]",
    lease_ttl: float,
    ctx: "TaskContext",
) -> None:
    """One fleet worker: claim → execute → append → release, until no
    task is pending (or a drain signal arrives).

    Module-level so it pickles under every multiprocessing start
    method.  The worker opens its own store from the URL (handles and
    connections never cross the process boundary) and identifies
    itself to the lease board as ``pid-<pid>-<nonce>``.  Tasks execute
    through :func:`repro.campaign.executor.run_task` under ``ctx``,
    exactly as the serial loop and the pool run them.
    """
    from repro.campaign.executor import (
        _telemetry_delta,
        _telemetry_state,
        _worker_tracer,
        load_partials,
        run_task,
        telemetry_record,
    )
    from repro.store import open_store

    store = open_store(store_url)
    _require_leases(store)
    owner = f"pid-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    pending = {t.task_hash(): t for t in tasks}
    # Adaptive tasks resume from partial-progress records (completed
    # reps of tasks whose final record never landed — e.g. a peer died
    # mid-task) and flush their own partials through this worker's
    # store handle.
    ctx = replace(
        ctx,
        priors=load_partials(store, {h for h, t in pending.items() if t.sampling}),
        partial_store=store,
    )
    tracer = None if ctx.trace_dir is None else _worker_tracer(ctx.trace_dir)
    # Baseline for this worker's telemetry delta: values a forked
    # worker inherited from the dispatcher must not leak into it.
    telemetry_base = _telemetry_state()

    # Drain protocol: SIGINT/SIGTERM set the event; the loop finishes
    # its in-flight task, then falls through to the telemetry append
    # and a clean exit 0 (which supervision knows not to restart).
    drain = threading.Event()
    if threading.current_thread() is threading.main_thread():

        def _on_signal(signum, frame):  # pragma: no cover - signal context
            drain.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _on_signal)

    while pending and not drain.is_set():
        # Refresh the view of finished work (ours and every peer's).
        for h in _present_hashes(store, set(pending)):
            pending.pop(h, None)
        claimed = None
        for h, task in pending.items():
            if store.try_claim(h, owner, lease_ttl):
                claimed = (h, task)
                break
        if claimed is None:
            if pending:
                time.sleep(_IDLE_SLEEP_S)
            continue
        h, task = claimed
        try:
            # Recheck after winning the claim: a stolen task may have
            # been finished by its original owner between our scans.
            if h in _present_hashes(store, {h}):
                pending.pop(h, None)
                continue

            record = _execute_with_heartbeat(
                store, h, owner, lease_ttl, lambda: run_task(task, ctx)
            )
            if ctx.chaos is not None and ctx.chaos.should("tear", h):
                _chaos_tear(store, record, tracer)  # never returns
            store.append(record)
            pending.pop(h, None)
        finally:
            store.release(h, owner)
    if tracer is not None:
        tracer.close()
    # One telemetry record per worker that executed tasks, in
    # run_campaign's schema; an idle worker appends none.
    delta = _telemetry_delta(telemetry_base)
    fresh = int(delta["counters"].get("campaign.tasks", 0))
    if fresh:
        store.append(
            telemetry_record(
                [delta], serve_worker=owner, jobs=1, workers=1, fresh=fresh, cached=0
            )
        )
    store.close()


def _present_hashes(store: "StoreBackend", wanted: "set[str]") -> "set[str]":
    return wanted - _missing_hashes(store, wanted)


def _execute_with_heartbeat(
    store, key, owner, lease_ttl, runner: "Callable[[], dict]"
):
    """Run one task (a zero-argument runner) while a daemon thread
    keeps its lease warm.

    The heartbeat is what distinguishes "slow" from "dead": a task may
    legitimately outlive the TTL, so liveness — not task duration — is
    what peers watch before stealing.  (That is also why an injected
    *hang* is healed by ``--task-timeout``, not by lease stealing: a
    hung worker still heartbeats.)
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(lease_ttl / 3):
            if not store.heartbeat(key, owner, lease_ttl):
                return  # lease lost (stolen); finish anyway — idempotent

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        return runner()
    finally:
        stop.set()
        thread.join()


def _chaos_tear(store, record: dict, tracer) -> None:
    """Injected torn write: append a truncated record fragment (no
    trailing newline) straight to the backing file, then crash the
    worker — the exact footprint of a process dying mid-``write``.

    Only the JSONL-backed stores have a raw byte tail to tear; for
    transactional backends (sqlite) the injection degrades to a crash
    *before* the append, which is their actual worst case.  Never
    returns.
    """
    from repro.chaos.harness import _chaos_exit
    from repro.store.integrity import seal_text
    from repro.store.jsonl import ResultStore
    from repro.store.sharded import ShardedStore

    target = None
    if isinstance(store, ResultStore):
        target = store.path
    elif isinstance(store, ShardedStore):
        store._write_meta()  # a real append would have created it
        target = store._shard_path(store.shard_index(record["hash"]))
    if target is not None:
        line = seal_text(record).encode()
        os.makedirs(os.path.dirname(os.fspath(target)) or ".", exist_ok=True)
        with open(target, "ab") as fh:
            fh.write(line[: max(1, len(line) // 2)])
            fh.flush()
    _chaos_exit(tracer, "tear", record.get("hash"), 0)
