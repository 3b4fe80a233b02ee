"""The supervised worker fleet behind ``--jobs N`` and ``repro serve``.

Both parallel schedulers are one fleet of long-lived worker processes
running tasks through :func:`~repro.campaign.executor.run_task`, under
one supervisor (:class:`_Fleet`).  The modes differ only in where a
worker gets its next task and who appends the record:

- ``--jobs N`` (:func:`run_fleet`): the dispatcher is the lease board.
  It hands each worker its next batch over the worker's own pipe —
  guided self-scheduling, ``ceil(remaining / (2 × workers))`` tasks,
  never fewer than one — so it knows which tasks each worker holds.
  It is the only writer: a finished batch lands with one
  :func:`~repro.store.protocol.append_many`, and adaptive ``partial``
  records come up the pipe.
- ``repro serve`` (:func:`serve_campaign`): workers *claim* tasks from
  a concurrent store's lease board (:mod:`repro.store.protocol`) and
  append their own records; a worker that dies mid-task stops
  heartbeating and loses its claim to a peer once the lease TTL
  passes.  Several dispatchers may share one store and so one warm
  fleet.

The supervisor restarts a worker that exits nonzero in a fresh chaos
generation, within a budget of ``4 × workers``; a ``--jobs`` worker's
undelivered tasks go back on the queue at once.  Once the budget is
spent ``--jobs`` runs the remainder serially in the dispatcher and
``serve`` raises.  ``SIGINT``/``SIGTERM`` drain the fleet: workers
finish their in-flight task, hand back (or append) their records and
telemetry and exit 0, and the dispatcher raises
:class:`ServeInterrupted`.  A task's record depends only on its
content-hashed identity, so a task run twice (a stolen lease, a
requeued batch) yields bit-identical records that last-wins folding
makes invisible: either mode matches ``--jobs 1`` record for record
(``docs/DESIGN.md`` §10).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
import uuid
import warnings
from collections import deque
from dataclasses import replace
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from repro.campaign.executor import (
    TaskContext,
    _count_quarantined,
    _run_serial,
    _telemetry_delta,
    _telemetry_state,
    _worker_tracer,
    load_partials,
    run_task,
    telemetry_record,
)
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.spec import TaskSpec
    from repro.chaos import ChaosPolicy
    from repro.store.protocol import StoreBackend

__all__ = ["ServeInterrupted", "run_fleet", "serve_campaign", "serve_worker"]

#: How often a dispatcher looks at its workers and at pending signals
#: (and, in serve mode, polls the store for finished tasks).
_POLL_S = 0.1

#: How long a serve worker sleeps when every pending task is currently
#: leased by a live peer.
_IDLE_SLEEP_S = 0.05

#: How long a draining fleet may take to finish its in-flight tasks
#: before the workers still running are killed.
_DRAIN_JOIN_S = 30.0


class ServeInterrupted(RuntimeError):
    """A campaign dispatcher was stopped by a signal after draining its
    fleet.

    Carries the ``signum`` so callers can re-exit conventionally
    (``128 + signum``, which the CLI does).
    """

    def __init__(self, signum: int) -> None:
        self.signum = int(signum)
        super().__init__(
            f"campaign dispatcher interrupted by signal {self.signum}; "
            "workers drained"
        )


class _Fleet:
    """The one supervisor: ``workers`` processes started by
    ``spawn(ctx, name)``, restarted on crash within ``budget``, drained
    on ``SIGINT``/``SIGTERM`` (handlers go in on the main thread only).

    Worker ``i`` starts in chaos generation ``i`` and the ``k``-th
    restart in ``workers + k - 1``, so a restarted worker re-rolls its
    injection draws and a kill-fated task cannot follow it.
    """

    def __init__(self, spawn, ctx: TaskContext, workers: int, budget: int, name: str):
        self.spawn, self.ctx, self.name = spawn, ctx, name
        self.workers, self.budget = workers, budget
        self.live: "list[multiprocessing.Process]" = []
        self.restarts = 0
        self.interrupted: "list[int]" = []
        self.draining_until: "float | None" = None
        self.tracer = None if ctx.trace_dir is None else _worker_tracer(ctx.trace_dir)
        self._handlers: "dict[int, object]" = {}

    def __enter__(self) -> "_Fleet":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._handlers[signum] = signal.signal(signum, self._on_signal)
        for generation in range(self.workers):
            self._start(generation)
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        for signum, handler in self._handlers.items():
            signal.signal(signum, handler)
        for proc in self.live:
            if exc_type is not None:  # an error path: die with the dispatcher
                proc.kill()
            proc.join()
        if self.tracer is not None:
            self.tracer.close()

    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - signal context
        self.interrupted.append(signum)

    def _start(self, generation: int) -> None:
        ctx = self.ctx
        if ctx.chaos is not None:
            ctx = replace(ctx, chaos=ctx.chaos.with_generation(generation))
        self.live.append(self.spawn(ctx, f"{self.name}-g{generation}"))

    def drain(self) -> None:
        """Forward SIGTERM to every worker: each finishes its in-flight
        task, hands back what it has and exits 0.  Nothing restarts
        from here on."""
        if self.draining_until is None:
            self.draining_until = time.monotonic() + _DRAIN_JOIN_S
            for proc in self.live:
                proc.terminate()

    def reap(self) -> "list[multiprocessing.Process]":
        """Drop every worker that has exited from :attr:`live` and return
        them, restarting each crash (nonzero exit) within the budget."""
        if self.interrupted:
            self.drain()
        if self.draining_until is not None and time.monotonic() > self.draining_until:
            for proc in self.live:  # pragma: no cover - stuck worker
                proc.kill()
        gone = [proc for proc in self.live if proc.exitcode is not None]
        for proc in gone:
            self.live.remove(proc)
            if proc.exitcode and self.draining_until is None and self.restarts < self.budget:
                self.restarts += 1
                METRICS.inc("campaign.worker_restarts")
                if self.tracer is not None:
                    self.tracer.emit(
                        "worker-restart",
                        exitcode=proc.exitcode,
                        restarts=self.restarts,
                        name=proc.name,
                    )
                self._start(self.workers + self.restarts - 1)
        return gone


def _start(name: str, target, *args) -> "multiprocessing.Process":
    proc = multiprocessing.Process(target=target, args=args, name=name, daemon=True)
    proc.start()
    return proc


def _drain_event() -> threading.Event:
    """Set by SIGINT/SIGTERM in a worker: finish the in-flight task,
    hand back what is done, exit 0 (which the supervisor never
    restarts)."""
    drain = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda signum, frame: drain.set())
    return drain


# ----------------------------------------------------------------------
# --jobs N: the dispatcher is the lease board
# ----------------------------------------------------------------------
def run_fleet(
    workers: int,
    todo: "list[tuple[int, TaskSpec]]",
    ctx: TaskContext,
    deliver: "Callable[[list[int], list[dict]], None]",
) -> "tuple[list[dict], int | None]":
    """Run ``todo`` (``(index, task)`` pairs) on ``workers`` fleet
    workers, handing ``deliver`` each finished batch's indices and
    records; returns the telemetry deltas and the signal that drained
    the fleet (or ``None``).  ``ctx.partial_store`` receives the
    adaptive partial records workers send up, the newest of which a
    requeued task resumes from.  A raising task drains the fleet, then
    propagates.
    """
    store, priors, queue = ctx.partial_store, dict(ctx.priors), deque(todo)
    # worker -> [its pipe end, the batch it holds (None: wants one)]
    links: "dict[multiprocessing.Process, list]" = {}
    parts: "list[dict]" = []
    errors: "list[BaseException]" = []

    def spawn(worker_ctx: TaskContext, name: str) -> "multiprocessing.Process":
        here, there = multiprocessing.Pipe()
        proc = _start(name, fleet_worker, there, worker_ctx)
        there.close()
        links[proc] = [here, None]
        return proc

    def hand_out(link: list) -> None:
        size = math.ceil(len(queue) / (2 * workers)) if fleet.draining_until is None else 0
        link[1] = [queue.popleft() for _ in range(size)]
        tasks = [t for _, t in link[1]]
        wanted = (t.task_hash() for t in tasks if t.sampling) if priors else ()
        try:
            link[0].send((tasks, {h: priors[h] for h in wanted if h in priors}) if tasks else None)
        except OSError:  # it died meanwhile; reap() requeues the batch
            pass

    def receive(proc) -> bool:
        """Handle one message from ``proc``; ``False`` once it is gone."""
        link = links[proc]
        try:
            message = link[0].recv()
        except EOFError:
            proc.join()
            return False
        if isinstance(message, dict):  # an adaptive partial record
            if store is not None:
                store.append(message)
            priors[message["task_hash"]] = message["per_rep"]
            return True
        records, telemetry, error = message
        held, link[1] = link[1], None
        if records:
            deliver([i for i, _ in held[: len(records)]], records)
        queue.extendleft(reversed(held[len(records) :]))
        parts.append(telemetry)
        if error is not None:
            errors.append(error)
            fleet.drain()
        return True

    worker_ctx = replace(ctx, priors={}, partial_store=None)
    fleet = _Fleet(spawn, worker_ctx, workers, 4 * workers, "repro-fleet")
    with fleet:
        while fleet.live:
            for proc in fleet.live:
                if links[proc][1] is None:
                    hand_out(links[proc])
            conns = {links[proc][0]: proc for proc in fleet.live}
            for conn in wait(list(conns), _POLL_S):
                receive(conns[conn])
            for proc in fleet.reap():
                while receive(proc):
                    pass
                conn, held = links.pop(proc)
                conn.close()
                queue.extendleft(reversed(held or ()))
    if errors:
        raise errors[0]
    signum = fleet.interrupted[0] if fleet.interrupted else None
    if queue and signum is None:
        warnings.warn(
            f"worker fleet spent its restart budget ({fleet.budget}); running "
            f"the remaining {len(queue)} task(s) serially",
            RuntimeWarning,
            stacklevel=3,
        )
        parts.append(_run_serial(list(queue), replace(ctx, priors=priors), deliver))
    return parts, signum


def fleet_worker(conn, ctx: TaskContext) -> None:
    """One ``--jobs`` worker: run each batch the dispatcher sends until
    it sends ``None``.

    Module-level so it pickles under every multiprocessing start
    method.  A batch is answered with ``(records, telemetry delta,
    error)``; adaptive partial records go up as they are made.  A drain
    signal ends the batch after the in-flight task, and the answer
    carries the records finished so far.  An orphaned worker (its
    dispatcher died) exits.
    """
    drain = _drain_event()
    parent = os.getppid()
    ctx = replace(ctx, partial_store=SimpleNamespace(append=conn.send))
    base = _telemetry_state()
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        batch = conn.recv()
        if batch is None:
            break
        tasks, priors = batch
        batch_ctx = replace(ctx, priors=priors)
        records: "list[dict]" = []
        error = None
        try:
            for task in tasks:
                if drain.is_set() or os.getppid() != parent:
                    break
                records.append(run_task(task, batch_ctx))
        except Exception as exc:  # noqa: BLE001 - handed to the dispatcher
            error = exc
        conn.send((records, _telemetry_delta(base), error))
        base = _telemetry_state()
    if ctx.trace_dir is not None:
        _worker_tracer(ctx.trace_dir).close()


# ----------------------------------------------------------------------
# repro serve: workers claim from the store's lease board
# ----------------------------------------------------------------------
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
    task_timeout: "float | None" = None,
    retries: int = 0,
    chaos: "ChaosPolicy | str | None" = None,
    max_worker_restarts: "int | None" = None,
    trace_dir: "str | os.PathLike[str] | None" = None,
) -> "list[dict]":
    """Run ``tasks`` through a lease-coordinated worker fleet.

    The dispatcher spawns ``workers`` processes, waits for every task's
    record to appear in ``store`` (polling it for progress reporting),
    and returns the records aligned with ``tasks`` — the same contract
    as :func:`repro.campaign.executor.run_campaign`, and bit-identical
    records to it.

    ``lease_ttl`` is the crash-detection horizon: a worker that stops
    heartbeating for this long loses its claims to the rest of the
    fleet.  Keep it comfortably above the longest single task; the
    heartbeat thread refreshes at ``lease_ttl / 3``.

    ``task_timeout`` / ``retries`` / ``chaos`` are
    :func:`~repro.campaign.executor.run_campaign`'s hardening keywords
    (all off by default, ``docs/DESIGN.md`` §10), armed in every worker
    and never in the dispatcher; ``max_worker_restarts`` caps fleet
    supervision (``None`` → ``4 * workers``).  Quarantine records among
    the results are counted into the ``campaign.quarantined`` metric.

    Tasks already present in the store are served from it without
    execution (serve mode *is* resume, like every store-backed
    campaign path).  A store named by URL is opened here and closed
    before returning; a store instance stays the caller's to close.
    """
    from repro.chaos import resolve_chaos, resolve_retry
    from repro.store import opened_store

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if lease_ttl <= 0:
        raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
    with opened_store(store) as store:
        _require_leases(store)
        tasks = list(tasks)
        done, pending = store.resume(tasks)
        if progress is not None:
            for _ in range(len(tasks) - len(pending)):
                progress.update(cached=True)
        if not pending:
            if progress is not None:
                progress.finish()
            return [done[t.task_hash()] for t in tasks]

        ctx = TaskContext(
            reuse_workspace=reuse_workspace,
            trace_dir=None if trace_dir is None else os.fspath(trace_dir),
            retry=resolve_retry(retries=retries, task_timeout=task_timeout),
            chaos=resolve_chaos(chaos),
        )

        def spawn(worker_ctx: TaskContext, name: str) -> "multiprocessing.Process":
            return _start(name, serve_worker, store.url, pending, lease_ttl, worker_ctx)

        budget = 4 * workers if max_worker_restarts is None else int(max_worker_restarts)
        wanted = {t.task_hash() for t in pending}
        try:
            with _Fleet(spawn, ctx, workers, budget, "repro-serve") as fleet:
                while wanted:
                    time.sleep(_POLL_S)
                    fleet.reap()
                    if fleet.interrupted:
                        if not fleet.live:
                            raise ServeInterrupted(fleet.interrupted[0])
                        continue
                    finished = _present_hashes(store, wanted)
                    wanted -= finished
                    for _ in finished if progress is not None else ():
                        progress.update()
                    if wanted and not fleet.live:
                        raise RuntimeError(
                            f"all serve workers exited but {len(wanted)} task(s) "
                            "never produced a record; see worker stderr"
                        )
        finally:
            if progress is not None:
                progress.finish()
        done = store.resume(tasks)[0]
        records = [done[t.task_hash()] for t in tasks]
        _count_quarantined(records)
        return records


def _present_hashes(store: "StoreBackend", wanted: "set[str]") -> "set[str]":
    return {h for rec in store.iter_records() if (h := rec.get("hash")) in wanted}


def serve_worker(
    store_url: str,
    tasks: "list[TaskSpec]",
    lease_ttl: float,
    ctx: TaskContext,
) -> None:
    """One serve worker: claim → execute → append → release, until no
    task is pending (or a drain signal arrives).

    Module-level so it pickles under every multiprocessing start
    method.  The worker opens its own store from the URL (handles and
    connections never cross the process boundary) and identifies
    itself to the lease board as ``pid-<pid>-<nonce>``.  Tasks execute
    through :func:`repro.campaign.executor.run_task` under ``ctx``,
    exactly as the serial loop and ``--jobs`` workers run them.
    """
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
    drain = _drain_event()

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
