"""Fault injection and self-healing execution for the campaign harness.

The solver side of this repo survives *silent* errors (the paper's
ABFT/checkpoint machinery); :mod:`repro.chaos` makes the *harness*
survive loud ones — crashed or hung workers, poison tasks — and
provides the seeded fault injector that proves it
(``docs/DESIGN.md`` §10).

- :class:`ChaosPolicy` / :func:`resolve_chaos` — deterministic,
  generation-salted fault injection (worker kills, hangs), off by
  default and zero-overhead when off;
- :class:`RetryPolicy` / :func:`run_guarded` — per-task wall-clock
  deadlines, bounded retry with backoff + jitter, and poison-task
  quarantine records;
- wired through ``run_campaign(task_timeout=, retries=, chaos=)``,
  the worker fleet's supervision, and the matching CLI flags.
"""

from repro.chaos.harness import (
    QUARANTINE_SCHEMA,
    RetryPolicy,
    TaskTimeout,
    deadline,
    quarantine_record,
    resolve_retry,
    run_guarded,
)
from repro.chaos.policy import (
    CHAOS_ENV,
    CHAOS_EXIT_CODE,
    ChaosPolicy,
    resolve_chaos,
)

__all__ = [
    "ChaosPolicy",
    "resolve_chaos",
    "CHAOS_ENV",
    "CHAOS_EXIT_CODE",
    "RetryPolicy",
    "TaskTimeout",
    "resolve_retry",
    "run_guarded",
    "quarantine_record",
    "deadline",
    "QUARANTINE_SCHEMA",
]
