"""The supervised worker fleet behind ``--jobs N``.

One dispatcher (:func:`run_fleet`) hands tasks to long-lived worker
processes (:func:`fleet_worker`) over each worker's own pipe, under one
supervisor (:class:`_Fleet`).  Workers never open the store: they run
tasks through :func:`~repro.campaign.executor.run_task` and send
records (and adaptive ``partial`` records) up the pipe, and the
dispatcher is the only writer.  Hand-outs follow guided
self-scheduling, ``ceil(remaining / (2 × workers))`` tasks each, never
fewer than one; the dispatcher's own bookkeeping of what each worker
holds is all the coordination there is.

The supervisor restarts a worker that exits nonzero in a fresh chaos
generation, within a budget of ``4 × workers``, and the tasks the dead
worker held go back on the queue at once.  Once the budget is spent
the remainder runs serially in the dispatcher.
``SIGINT``/``SIGTERM`` drain the fleet: workers finish their in-flight
task, hand back their records and telemetry and exit 0, and the
dispatcher raises :class:`ServeInterrupted`.  A task's record depends
only on its content-hashed identity, so a task run twice (a requeued
batch) yields bit-identical records that last-wins folding makes
invisible: the fleet matches ``--jobs 1`` record for record
(``docs/DESIGN.md`` §10).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
import warnings
from collections import deque
from dataclasses import replace
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

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

__all__ = ["ServeInterrupted", "fleet_worker", "run_fleet"]

#: How often a dispatcher looks at its workers and at pending signals.
_POLL_S = 0.1

#: How long a draining fleet may take to finish its in-flight tasks
#: before the workers still running are killed.
_DRAIN_JOIN_S = 30.0


class ServeInterrupted(RuntimeError):
    """A ``--jobs N`` campaign was stopped by a signal after draining its
    worker fleet.

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
        proc = multiprocessing.Process(
            target=fleet_worker, args=(there, worker_ctx), name=name, daemon=True
        )
        proc.start()
        there.close()
        links[proc] = [here, None]
        return proc

    def hand_out(link: list) -> None:
        """Send ``link``'s worker its next batch; an empty one (a drain or
        an empty queue) ends the worker."""
        size = 0 if fleet.draining_until is not None else math.ceil(len(queue) / (2 * workers))
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
        queue.extendleft(reversed(held[len(records) :]))
        parts.append(telemetry)
        if error is not None:
            errors.append(error)
            fleet.drain()
        return True

    worker_ctx = replace(ctx, priors={}, partial_store=None)
    fleet = _Fleet(spawn, worker_ctx, workers)
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
