"""The supervised worker fleet behind ``--jobs N`` and ``repro serve``.

Both parallel schedulers are one dispatcher (:func:`run_fleet`) handing
tasks to long-lived worker processes (:func:`fleet_worker`) over each
worker's own pipe, under one supervisor (:class:`_Fleet`).  Workers
never open the store: they run tasks through
:func:`~repro.campaign.executor.run_task` and send records (and
adaptive ``partial`` records) up the pipe, and the dispatcher is the
only writer.  The modes differ only in how the dispatcher hands tasks
out:

- ``--jobs N``: guided self-scheduling, ``ceil(remaining / (2 ×
  workers))`` tasks per hand-out, never fewer than one.  The
  dispatcher's own bookkeeping of what each worker holds is the whole
  lease board.
- ``repro serve`` (``run_campaign(lease_ttl=...)``): one task per
  hand-out, each first claimed in the store's lease board
  (:mod:`repro.store.protocol`; ``sqlite:`` is the one shipped
  backend with one), heartbeated from the poll loop and
  released once its record is appended — so several dispatchers may
  share one store.  A task a peer holds is deferred; while any is, the
  dispatcher re-reads the store at most once per poll tick, adopting
  the records peers settled and reclaiming the leases they let go or
  let expire.

The supervisor restarts a worker that exits nonzero in a fresh chaos
generation, within a budget of ``4 × workers``, and the tasks the dead
worker held go back on the queue at once (still claimed, in lease
mode).  Once the budget is spent the remainder runs serially in the
dispatcher.  A crashed *dispatcher* stops heartbeating; its leases
expire after the TTL and peers take its tasks over.
``SIGINT``/``SIGTERM`` drain the fleet: workers finish their in-flight
task, hand back their records and telemetry and exit 0, and the
dispatcher raises :class:`ServeInterrupted`.  A task's record depends
only on its content-hashed identity, so a task run twice (a stolen
lease, a requeued batch) yields bit-identical records that last-wins
folding makes invisible: either mode matches ``--jobs 1`` record for
record (``docs/DESIGN.md`` §10).
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
from typing import TYPE_CHECKING, Callable, Iterable

from repro.campaign.executor import (
    TaskContext,
    _run_serial,
    _telemetry_delta,
    _telemetry_state,
    _worker_tracer,
    run_task,
)
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import TaskSpec
    from repro.store.protocol import StoreBackend

__all__ = ["Leases", "ServeInterrupted", "fleet_worker", "run_fleet"]

#: How often a dispatcher looks at its workers and at pending signals
#: (and, in lease mode, at most how often it re-reads the store while
#: peers hold some of its tasks).
_POLL_S = 0.1

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
    ``spawn(ctx, name)``, restarted on crash within a budget of ``4 ×
    workers``, drained on ``SIGINT``/``SIGTERM`` (handlers go in on the
    main thread only).

    Worker ``i`` starts in chaos generation ``i`` and the ``k``-th
    restart in ``workers + k - 1``, so a restarted worker re-rolls its
    injection draws and a kill-fated task cannot follow it.
    """

    def __init__(self, spawn, ctx: TaskContext, workers: int):
        self.spawn, self.ctx = spawn, ctx
        self.workers, self.budget = workers, 4 * workers
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
        self.live.append(self.spawn(ctx, f"repro-fleet-g{generation}"))

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


class Leases:
    """A dispatcher's claims in a store's lease board (lease mode).

    ``owner`` (``pid-<pid>-<nonce>``) names the dispatcher to its peers
    and stamps its telemetry record.  Leases are advisory: they keep
    peers from duplicating work, while correctness rests on records
    being idempotent by content hash.
    """

    def __init__(self, store: "StoreBackend | None", ttl: float) -> None:
        from repro.store.protocol import LeaseUnsupported

        if ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {ttl}")
        if not getattr(store, "supports_leases", False):
            raise LeaseUnsupported(
                f"store {getattr(store, 'url', store)!r} cannot coordinate "
                "concurrent dispatchers; serve mode needs a sqlite:FILE.db "
                "store (or a custom backend with lease support)"
            )
        self.store, self.ttl = store, ttl
        self.owner = f"pid-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.held: "set[str]" = set()
        self._beat_at = time.monotonic() + ttl / 3

    def claim(self, key: str) -> bool:
        """Whether this dispatcher holds ``key``, claiming it if not.
        (Both backends refuse a holder's re-claim, so a task requeued
        after a worker crash keeps its lease.)"""
        if key not in self.held:
            if not self.store.try_claim(key, self.owner, self.ttl):
                return False
            self.held.add(key)
        return True

    def beat(self) -> None:
        """Heartbeat every held lease, at most once per ``ttl / 3``.  A
        lease lost meanwhile is run anyway: the records are identical."""
        now = time.monotonic()
        if now >= self._beat_at:
            self._beat_at = now + self.ttl / 3
            for key in self.held:
                self.store.heartbeat(key, self.owner, self.ttl)

    def release(self, keys: "Iterable[str]") -> None:
        for key in list(keys):
            if key in self.held:
                self.held.discard(key)
                self.store.release(key, self.owner)


def run_fleet(
    workers: int,
    todo: "list[tuple[int, TaskSpec]]",
    ctx: TaskContext,
    deliver: "Callable[..., None]",
    leases: "Leases | None" = None,
) -> "tuple[list[dict], int | None]":
    """Run ``todo`` (``(index, task)`` pairs) on ``workers`` fleet
    workers, handing ``deliver`` each finished batch's indices and
    records; returns the telemetry deltas and the signal that drained
    the fleet (or ``None``).  ``ctx.partial_store`` receives the
    adaptive partial records workers send up, the newest of which a
    requeued task resumes from.  A raising task drains the fleet, then
    propagates.

    With ``leases`` every hand-out is one task, claimed first and
    released once delivered; a task a peer holds is deferred, and the
    records peers settle reach ``deliver`` with ``fresh=False``.
    """
    store, priors, queue = ctx.partial_store, dict(ctx.priors), deque(todo)
    deferred: "list[tuple[int, TaskSpec]]" = []
    # worker -> [its pipe end, the batch it holds (None: wants one)]
    links: "dict[multiprocessing.Process, list]" = {}
    parts: "list[dict]" = []
    errors: "list[BaseException]" = []

    def spawn(worker_ctx: TaskContext, name: str) -> "multiprocessing.Process":
        here, there = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=fleet_worker, args=(there, worker_ctx), name=name, daemon=True
        )
        proc.start()
        there.close()
        links[proc] = [here, None]
        return proc

    def take() -> "list | None":
        """The next hand-out: ``[]`` ends the worker, ``None`` leaves it
        idle while peers hold the remaining tasks."""
        if fleet.draining_until is not None:
            return []
        if leases is None:
            return [queue.popleft() for _ in range(math.ceil(len(queue) / (2 * workers)))]
        while queue:
            item = queue.popleft()
            if leases.claim(item[1].task_hash()):
                return [item]
            deferred.append(item)
        return None if deferred else []

    def hand_out(link: list) -> None:
        batch = take()
        if batch is None:
            return
        link[1] = batch
        tasks = [t for _, t in batch]
        wanted = (t.task_hash() for t in tasks if t.sampling) if priors else ()
        try:
            link[0].send((tasks, {h: priors[h] for h in wanted if h in priors}) if tasks else None)
        except OSError:  # it died meanwhile; reap() requeues the batch
            pass

    def settle() -> None:
        """Reclaim the deferred tasks peers let go of, then read the
        store once.  A peer appends before it releases, so a task won
        here that a peer finished already shows its record."""
        won = {h for _, t in deferred if leases.claim(h := t.task_hash())}
        settled = leases.store.resume([t for _, t in deferred])[0]
        adopted, waiting = [], []
        for item in deferred:
            h = item[1].task_hash()
            (adopted if h in settled else queue if h in won else waiting).append(item)
        deferred[:] = waiting
        if adopted:
            hashes = [t.task_hash() for _, t in adopted]
            deliver([i for i, _ in adopted], [settled[h] for h in hashes], fresh=False)
            leases.release(hashes)

    def receive(proc) -> bool:
        """Handle one message from ``proc``; ``False`` once it is gone."""
        link = links[proc]
        try:
            message = link[0].recv()
        except (EOFError, OSError):  # a SIGKILL can also reset the pipe
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
            if leases is not None:
                leases.release(t.task_hash() for _, t in held[: len(records)])
        queue.extendleft(reversed(held[len(records) :]))
        parts.append(telemetry)
        if error is not None:
            errors.append(error)
            fleet.drain()
        return True

    worker_ctx = replace(ctx, priors={}, partial_store=None)
    fleet = _Fleet(spawn, worker_ctx, workers)
    settle_at = 0.0
    try:
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
                if leases is not None:
                    leases.beat()
                    if deferred and not queue and time.monotonic() >= settle_at:
                        settle_at = time.monotonic() + _POLL_S
                        settle()
        if errors:
            raise errors[0]
        signum = fleet.interrupted[0] if fleet.interrupted else None
        queue.extend(deferred)
        if queue and signum is None:
            warnings.warn(
                f"worker fleet spent its restart budget ({fleet.budget}); running "
                f"the remaining {len(queue)} task(s) serially",
                RuntimeWarning,
                stacklevel=3,
            )
            parts.append(_run_serial(list(queue), replace(ctx, priors=priors), deliver))
    finally:
        if leases is not None:
            leases.release(leases.held)
    return parts, signum


def fleet_worker(conn, ctx: TaskContext) -> None:
    """One fleet worker: run each batch the dispatcher sends until it
    sends ``None``.

    Module-level so it pickles under every multiprocessing start
    method.  A batch is answered with ``(records, telemetry delta,
    error)``; adaptive partial records go up as they are made.  A drain
    signal ends the batch after the in-flight task, and the answer
    carries the records finished so far.  An orphaned worker (its
    dispatcher died) exits.
    """
    # SIGINT/SIGTERM: finish the in-flight task, hand back what is
    # done, exit 0 (which the supervisor never restarts).
    drain = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda signum, frame: drain.set())
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
