"""Deterministic fault injection for the campaign harness.

The paper's engine survives *silent* errors inside the solver; this
module injects the *loud* ones the harness around it must survive —
worker crashes and hangs — so the self-healing paths
(``docs/DESIGN.md`` §10) can be exercised deterministically in tests
and CI instead of waiting for real crashes.

A :class:`ChaosPolicy` is a frozen value object: every injection
decision is a pure function of ``(seed, generation, site, task_hash,
attempt)`` hashed through SHA-256, so two processes holding the same
policy agree on which task dies.  Each such draw is reproducible; a
campaign's fault schedule is not.  Under ``--jobs N`` the generation a
task runs under depends on which worker took it and on the restarts
before it, so a re-run with the same seed can kill different tasks —
what it reproduces is the healed records, not the faults on the way.
Two properties make the injected faults *healable* rather than fatal:

- **Home-process suppression.**  A policy remembers the pid it was
  resolved in (the dispatcher / test process).  Injection only fires
  in *other* processes — workers — so the supervising side, and the
  serial fallback that runs tasks in the dispatcher itself, never
  crash.
- **Generations.**  Crash decisions would otherwise be fate: a task
  whose draw says "kill" would kill every worker that ever retries it.
  Supervisors bump :meth:`ChaosPolicy.with_generation` on each pool
  rebuild / worker restart, which re-rolls every draw, so repeated
  recovery converges instead of looping.

Chaos is **off by default and zero-overhead when off**: campaign code
calls :func:`resolve_chaos`, which returns ``None`` unless a policy
was passed explicitly or the ``REPRO_CHAOS`` environment variable
names one (e.g. ``REPRO_CHAOS="kill=0.1,hang=0.05"``), and every hot
path guards on ``chaos is None`` exactly like ``tracer is None``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

__all__ = ["ChaosPolicy", "resolve_chaos", "CHAOS_EXIT_CODE", "CHAOS_ENV"]

#: Exit status of a chaos-killed worker — distinctive, so supervisors
#: and tests can tell an injected crash from a real one.
CHAOS_EXIT_CODE = 86

#: Environment variable holding a default chaos spec (same syntax as
#: ``--chaos``); empty / ``"off"`` / ``"0"`` mean disabled.
CHAOS_ENV = "REPRO_CHAOS"

#: Injection sites, fixed strings so draws are stable across versions.
_SITES = ("kill", "hang")


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault-injection schedule for harness testing.

    Parameters
    ----------
    kill, hang:
        Per-(task, attempt) probabilities in ``[0, 1]`` of, at the
        matching site, crashing the worker (``os._exit``) or sleeping
        ``hang_s`` seconds mid-task.
    hang_s:
        Injected hang duration — finite, so an un-timeouted campaign
        stalls rather than deadlocks (a ``--task-timeout`` below this
        converts the hang into a retryable :class:`~repro.chaos
        .harness.TaskTimeout`).
    seed:
        Root of every decision draw.
    generation:
        Re-roll salt (see :meth:`with_generation`).
    home_pid:
        Pid in which injection is suppressed; filled by
        :func:`resolve_chaos`.
    """

    kill: float = 0.0
    hang: float = 0.0
    hang_s: float = 30.0
    seed: int = 0
    generation: int = 0
    home_pid: "int | None" = None

    def __post_init__(self) -> None:
        for site in _SITES:
            p = getattr(self, site)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"chaos {site} probability must be in [0, 1], got {p}")
        if self.hang_s <= 0:
            raise ValueError(f"chaos hang_s must be > 0, got {self.hang_s}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy | None":
        """Parse a ``--chaos`` spec: ``kill=0.2,hang=0.05,seed=7``.

        Keys are the dataclass fields (``kill``/``hang``
        probabilities, ``hang_s``, ``seed``); ``off``, ``0`` and the
        empty string mean "no chaos" and return ``None``.
        """
        spec = spec.strip()
        if spec.lower() in ("", "off", "0", "none"):
            return None
        kwargs: "dict[str, float | int]" = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in ("kill", "hang", "hang_s", "seed"):
                raise ValueError(
                    f"bad chaos spec component {part!r} "
                    "(expected kill=P, hang=P, hang_s=S or seed=N)"
                )
            try:
                kwargs[key] = int(value) if key == "seed" else float(value)
            except ValueError as exc:
                raise ValueError(f"bad chaos spec value {part!r}: {exc}") from exc
        policy = cls(**kwargs)  # type: ignore[arg-type]
        return policy if policy.enabled else None

    def with_generation(self, generation: int) -> "ChaosPolicy":
        """A copy whose decision draws are re-rolled (restart salt)."""
        return dataclasses.replace(self, generation=int(generation))

    def with_home(self, pid: "int | None" = None) -> "ChaosPolicy":
        """A copy that suppresses injection in ``pid`` (default: the
        calling process)."""
        return dataclasses.replace(
            self, home_pid=os.getpid() if pid is None else int(pid)
        )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any injection site has a non-zero probability."""
        return self.kill > 0 or self.hang > 0

    @property
    def active(self) -> bool:
        """Enabled *and* not suppressed in this process."""
        return self.enabled and os.getpid() != self.home_pid

    def draw(self, site: str, task_hash: str, attempt: int = 0) -> float:
        """The uniform ``[0, 1)`` decision draw for one injection site.

        Pure: every process computes the same value for the same
        arguments, which is what makes each draw reproducible.
        """
        key = f"{self.seed}:{self.generation}:{site}:{task_hash}:{attempt}"
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def should(self, site: str, task_hash: str, attempt: int = 0) -> bool:
        """Whether to inject at ``site`` for this (task, attempt)."""
        if not self.active:
            return False
        p = getattr(self, site)
        return p > 0 and self.draw(site, task_hash, attempt) < p

    def to_spec(self) -> str:
        """The ``--chaos`` spec string this policy round-trips through."""
        return (
            f"kill={self.kill:g},hang={self.hang:g},"
            f"hang_s={self.hang_s:g},seed={self.seed}"
        )


def resolve_chaos(
    chaos: "ChaosPolicy | str | None",
) -> "ChaosPolicy | None":
    """Normalize a chaos argument to an armed policy or ``None``.

    ``None`` falls back to the :data:`CHAOS_ENV` environment spec (the
    gate that lets CI inject faults into unmodified commands); specs
    parse via :meth:`ChaosPolicy.parse`.  The returned policy always
    has a ``home_pid`` — the calling (dispatching) process — so the
    supervisor side never injects into itself.  Disabled policies
    collapse to ``None``, keeping ``chaos is None`` the zero-overhead
    fast-path test everywhere (the ``resolve_tracer`` discipline).
    """
    if chaos is None:
        spec = os.environ.get(CHAOS_ENV, "")
        if not spec:
            return None
        chaos = spec
    if isinstance(chaos, str):
        chaos = ChaosPolicy.parse(chaos)
        if chaos is None:
            return None
    if not isinstance(chaos, ChaosPolicy):
        raise TypeError(f"chaos must be a ChaosPolicy, spec string or None, got {type(chaos)!r}")
    if not chaos.enabled:
        return None
    if chaos.home_pid is None:
        chaos = chaos.with_home()
    return chaos
