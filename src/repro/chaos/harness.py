"""Self-healing task execution: deadlines, retry, quarantine.

Every campaign task runs through :func:`run_guarded` — the chain is
``run_task → run_guarded → execute_task → repeat loop``
(``docs/DESIGN.md`` §10) — which, once a retry or chaos policy is
armed, wraps the execution with:

- a **wall-clock deadline** (``SIGALRM``-based, main-thread only —
  elsewhere the deadline degrades to unbounded, with a one-time
  ``RuntimeWarning``, rather than misfiring into the wrong thread),
  turning hangs into a retryable :class:`TaskTimeout`;
- **bounded retry** with exponential backoff and deterministic jitter
  (keyed on the task hash, so two workers retrying different tasks
  de-synchronize without consuming any RNG that could perturb
  results);
- **quarantine**: a task that exhausts its attempts is recorded as a
  structured ``kind="quarantine"`` store record under the task's own
  content hash — the campaign completes (with a non-zero summary)
  instead of dying, resume skips the poison task, and
  ``repro store compact --drop-quarantined`` clears it for a later
  retry.

Chaos injection (:mod:`repro.chaos.policy`) happens *inside* the
guard: injected kills crash the worker at the execution site, and
injected hangs sleep inside the deadline window so ``--task-timeout``
heals them exactly as it would a real stall.

Everything here is pure control flow around ``execute`` — it never
touches solver state or RNG, so arming a policy cannot change a record
(the same discipline as :mod:`repro.obs`).
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.chaos.policy import CHAOS_EXIT_CODE, ChaosPolicy
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import TaskSpec

__all__ = [
    "RetryPolicy",
    "TaskTimeout",
    "run_guarded",
    "quarantine_record",
    "resolve_retry",
    "QUARANTINE_SCHEMA",
]

#: Schema version stamped into ``quarantine`` store records.
QUARANTINE_SCHEMA: int = 1

#: Longest backoff between two attempts of one task, in seconds.
BACKOFF_CAP_S: float = 2.0


class TaskTimeout(RuntimeError):
    """A task overran its wall-clock deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failing task, and how patiently.

    ``retries`` is the number of *re*-attempts (0 = one attempt, no
    retry).  ``timeout`` is the per-attempt wall-clock deadline in
    seconds (``None`` = unbounded).  Backoff before attempt ``k`` is
    ``backoff * 2**(k-1)`` capped at :data:`BACKOFF_CAP_S`, scaled by a
    deterministic jitter in ``[0.5, 1.0]`` derived from the task hash.
    A task that exhausts its attempts is quarantined.
    """

    retries: int = 0
    timeout: "float | None" = None
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    def delay(self, task_hash: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered
        deterministically so peers retrying in lockstep spread out."""
        base = min(self.backoff * (2.0 ** max(attempt - 1, 0)), BACKOFF_CAP_S)
        digest = hashlib.sha256(f"{task_hash}:{attempt}".encode()).digest()
        jitter = 0.5 + 0.5 * (digest[0] / 255.0)
        return base * jitter


def resolve_retry(
    *, retries: int = 0, task_timeout: "float | None" = None
) -> "RetryPolicy | None":
    """Build a :class:`RetryPolicy` from the campaign-level knobs, or
    ``None`` when every knob is at its off value — with no policy
    (and no chaos) :func:`run_guarded` is a plain ``execute`` call."""
    if retries == 0 and task_timeout is None:
        return None
    return RetryPolicy(retries=int(retries), timeout=task_timeout)


#: What :func:`deadline` is without a deadline (reusable: it holds no state).
_NO_DEADLINE = nullcontext()

#: Whether this process already warned that it cannot enforce deadlines.
_warned_unenforced = False


@contextmanager
def deadline(seconds: "float | None", task_hash: str):
    """Raise :class:`TaskTimeout` if the body outruns ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, which only the process
    main thread may arm; elsewhere (or without ``SIGALRM``) the body
    runs unbounded and one ``RuntimeWarning`` per process says so —
    every campaign path runs tasks on worker main threads.
    """
    global _warned_unenforced
    wanted = seconds is not None and seconds > 0
    usable = (
        wanted
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        if wanted and not _warned_unenforced:
            _warned_unenforced = True
            warnings.warn(
                f"task-timeout of {seconds:g}s is not being enforced: a "
                "deadline needs SIGALRM on the process main thread",
                RuntimeWarning,
                stacklevel=3,
            )
        yield
        return

    def _alarm(signum, frame):  # pragma: no cover - signal context
        raise TaskTimeout(
            f"task {task_hash[:16]} exceeded its {seconds:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def quarantine_record(
    task: "TaskSpec", error: BaseException, attempts: int
) -> dict:
    """The structured store record of a poison task.

    Keyed by the task's own content hash, so a resume treats the task
    as settled (no retry storm on every resume); carries the full task
    spec so ``repro report`` can say *what* was
    quarantined and a later ``repro store compact --drop-quarantined``
    can clear it for re-execution.
    """
    return {
        "hash": task.task_hash(),
        "kind": "quarantine",
        "schema": QUARANTINE_SCHEMA,
        "task": task.to_json(),
        "error": f"{type(error).__name__}: {error}",
        "attempts": int(attempts),
    }


def run_guarded(
    task: "TaskSpec",
    *,
    retry: "RetryPolicy | None" = None,
    chaos: "ChaosPolicy | None" = None,
    tracer=None,
    execute: "Callable[..., dict]",
    **execute_kwargs,
) -> dict:
    """Execute one task under deadline / retry / chaos supervision.

    With ``retry is None`` and ``chaos is None`` this is exactly
    ``execute(task, **kwargs)``, so every campaign layer routes every
    task through here (the campaign executor passes its
    ``execute_task``).  ``tracer`` (a
    :class:`repro.obs.tracer.Tracer` or ``None``) receives ``retry`` /
    ``task-timeout`` / ``quarantine`` / ``chaos-inject`` events.

    Returns the task's result record, or — when a retry policy's
    attempts are exhausted — a :func:`quarantine_record`.  Without a
    retry policy an error propagates.
    """
    if retry is None and chaos is None:
        return execute(task, **execute_kwargs)

    task_hash = task.task_hash()
    retries = retry.retries if retry is not None else 0
    timeout = retry.timeout if retry is not None else None
    last_error: "BaseException | None" = None
    for attempt in range(retries + 1):
        if attempt:
            pause = retry.delay(task_hash, attempt)
            METRICS.inc("harness.retries")
            if tracer is not None:
                tracer.emit(
                    "retry",
                    task=task_hash,
                    attempt=attempt,
                    delay_s=round(pause, 4),
                    error=f"{type(last_error).__name__}: {last_error}",
                )
            time.sleep(pause)
        try:
            if chaos is not None and chaos.should("kill", task_hash, attempt):
                _chaos_exit(tracer, "kill", task_hash, attempt)
            with _NO_DEADLINE if timeout is None else deadline(timeout, task_hash):
                if chaos is not None and chaos.should("hang", task_hash, attempt):
                    if tracer is not None:
                        tracer.emit(
                            "chaos-inject", site="hang", task=task_hash,
                            attempt=attempt, hang_s=chaos.hang_s,
                        )
                    time.sleep(chaos.hang_s)
                return execute(task, **execute_kwargs)
        except TaskTimeout as exc:
            last_error = exc
            METRICS.inc("harness.timeouts")
            if tracer is not None:
                tracer.emit(
                    "task-timeout", task=task_hash,
                    attempt=attempt, timeout_s=timeout,
                )
        except Exception as exc:  # noqa: BLE001 - the retry boundary
            if retry is None:
                raise
            last_error = exc

    assert last_error is not None
    METRICS.inc("harness.quarantined")
    if tracer is not None:
        tracer.emit(
            "quarantine", task=task_hash, attempts=retries + 1,
            error=f"{type(last_error).__name__}: {last_error}",
        )
    return quarantine_record(task, last_error, retries + 1)


def _chaos_exit(tracer, site: str, task_hash: str, attempt: int) -> "None":
    """Crash the worker the way a real crash would: no cleanup, no
    exception propagation — ``os._exit``.  The tracer event is emitted
    first (JSONL sinks flush per event, so it survives)."""
    if tracer is not None:
        tracer.emit("chaos-inject", site=site, task=task_hash, attempt=attempt)
        try:
            tracer.close()
        except Exception:  # pragma: no cover - best effort
            pass
    os._exit(CHAOS_EXIT_CODE)
