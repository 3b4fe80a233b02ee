"""Structured tracing sinks for the solve and campaign stacks.

A :class:`Tracer` receives typed, schema-versioned events from the
resilience engine (solve lifecycle, per-iteration step outcomes, fault
strikes, ABFT/TMR recoveries, checkpointing, workspace reuse) and is
also the engine's only per-iteration observation surface, via
:meth:`Tracer.iteration`.  A plain callable attaches as
``tracer=CallbackTracer(on_iteration=f)``.

The design contract is *zero overhead when off*: ``resolve_tracer``
maps both ``None`` and the stock :class:`NullTracer` to ``None``, so
the engine's hot loop pays a single ``is not None`` test per event
site and nothing else.  Tracing therefore cannot perturb trajectories:
sinks observe, they never touch RNG state or simulated time
(``tests/test_obs_golden.py`` locks this bit-for-bit).

Event schema (version :data:`SCHEMA_VERSION`)::

    {"v": 1, "kind": "<event kind>", "iter": <int>, **context, **fields}

``context`` is a mutable dict merged into every event — the campaign
executor binds ``{"task": <task hash>}`` there so shard files can be
regrouped per task, and ``repeat_run`` binds ``{"rep": <int>}``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "InMemoryTracer",
    "JsonlTracer",
    "MultiTracer",
    "CallbackTracer",
    "resolve_tracer",
]

#: Version stamped into every event as ``"v"``.  Bump when an event's
#: field set changes incompatibly; readers must tolerate unknown kinds.
SCHEMA_VERSION = 1

#: The catalogue of event kinds the engine and campaign layers emit.
#: Documented in ``docs/DESIGN.md`` §8; sinks must accept unknown kinds
#: (forward compatibility), this set exists for tests and tooling.
EVENT_KINDS = frozenset(
    {
        "solve-start",
        "solve-converge",
        "solve-diverge",
        "step",
        "strike",
        "abft-setup",
        "abft-detection",
        "abft-correction",
        "tmr-detection",
        "tmr-correction",
        "chen-verify",
        "breakdown",
        "checkpoint",
        "rollback",
        "refresh-rollback",
        "final-check",
        "workspace-acquire",
        # Harness self-healing events (docs/DESIGN.md §10): emitted by
        # repro.chaos.run_guarded and the fleet dispatcher, not
        # the solver — iteration is always 0.
        "retry",
        "task-timeout",
        "quarantine",
        "chaos-inject",
        "worker-restart",
    }
)

#: Event kinds that belong on a fault/recovery timeline (what struck
#: and what the protection layers did about it), in emission order.
FAULT_EVENT_KINDS = frozenset(
    {
        "strike",
        "abft-detection",
        "abft-correction",
        "tmr-detection",
        "tmr-correction",
        "breakdown",
        "rollback",
        "refresh-rollback",
        "final-check",
    }
)


class Tracer:
    """Base class for event sinks.

    Subclasses implement :meth:`write` (receive one event dict) and may
    override :meth:`iteration`, the engine's per-iteration observation
    hook (called with the :class:`~repro.resilience.engine.EngineContext`
    once per executed iteration, after the step and any recovery).
    Both hooks are pure observation: they must not mutate engine or
    plugin state, consume RNG, or charge simulated time.
    """

    #: ``False`` only on :class:`NullTracer`; ``resolve_tracer`` uses it
    #: to collapse disabled sinks out of the hot path.
    enabled = True

    def __init__(self, context: "dict[str, Any] | None" = None) -> None:
        #: Mutable fields merged into every event (e.g. task hash, rep).
        self.context: dict[str, Any] = dict(context) if context else {}

    def emit(self, kind: str, iteration: int = 0, **fields: Any) -> None:
        """Build a schema-versioned event dict and hand it to the sink."""
        event: dict[str, Any] = {"v": SCHEMA_VERSION, "kind": kind, "iter": int(iteration)}
        if self.context:
            event.update(self.context)
        if fields:
            event.update(fields)
        self.write(event)

    def write(self, event: "dict[str, Any]") -> None:
        """Receive one event dict (sink-specific)."""
        raise NotImplementedError

    def iteration(self, ctx) -> None:
        """Per-iteration observation hook; default is a no-op."""

    @property
    def observes_iterations(self) -> bool:
        """Whether :meth:`iteration` does anything.  The engine only
        keeps the plugin's vectors current after every iteration for
        sinks that look at them; plain event sinks see the identical
        event stream either way."""
        return type(self).iteration is not Tracer.iteration

    def close(self) -> None:
        """Release sink resources; safe to call more than once."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTracer(Tracer):
    """The disabled sink: discards everything.

    ``resolve_tracer`` maps instances of this exact class to ``None``
    before the solve starts, so passing one is *exactly* as cheap as
    passing no tracer at all — the hot loop never even calls it
    (``benchmarks/overhead_gate.py`` gates this at ≤2% overhead).
    """

    enabled = False

    def write(self, event: "dict[str, Any]") -> None:
        pass


#: Module-level singleton; the canonical "tracing off" value.
NULL_TRACER = NullTracer()


class InMemoryTracer(Tracer):
    """Collects events in a list — the test and notebook sink."""

    def __init__(self, context: "dict[str, Any] | None" = None) -> None:
        super().__init__(context)
        self.events: list[dict[str, Any]] = []

    def write(self, event: "dict[str, Any]") -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> "list[dict[str, Any]]":
        """All recorded events of the given kind, in emission order."""
        return [ev for ev in self.events if ev.get("kind") == kind]

    def counts_by_kind(self) -> "dict[str, int]":
        """Histogram of recorded event kinds."""
        out: dict[str, int] = {}
        for ev in self.events:
            k = ev.get("kind", "?")
            out[k] = out.get(k, 0) + 1
        return out

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class JsonlTracer(Tracer):
    """Appends one JSON object per event to a file, crash-safely.

    Same durability contract as the campaign's JSONL result store:
    the file is opened in append mode, each event is flushed as its own
    newline-terminated line, and a process killed mid-write leaves at
    most one torn final line, which readers (:mod:`repro.obs.summarize`)
    detect and drop.  The parent directory is created on first write.
    """

    def __init__(self, path, context: "dict[str, Any] | None" = None) -> None:
        super().__init__(context)
        self.path = Path(path)
        self._fh = None

    def write(self, event: "dict[str, Any]") -> None:
        fh = self._fh
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self._fh = open(self.path, "a", encoding="utf-8")
        fh.write(json.dumps(event, sort_keys=True) + "\n")
        fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class MultiTracer(Tracer):
    """Fans every event and iteration hook out to child tracers.

    Each child applies its own ``context`` — the multi itself carries
    none.  Used to combine a user sink with internal observers (e.g.
    ``solve(record_history=True, trace=...)``).
    """

    def __init__(self, tracers: "Iterable[Tracer]") -> None:
        super().__init__()
        self.tracers: list[Tracer] = [t for t in tracers if t is not None]

    def emit(self, kind: str, iteration: int = 0, **fields: Any) -> None:
        for t in self.tracers:
            t.emit(kind, iteration, **fields)

    def write(self, event: "dict[str, Any]") -> None:  # pragma: no cover - emit overridden
        for t in self.tracers:
            t.write(event)

    def iteration(self, ctx) -> None:
        for t in self.tracers:
            t.iteration(ctx)

    @property
    def observes_iterations(self) -> bool:
        return any(t.observes_iterations for t in self.tracers)

    def close(self) -> None:
        for t in self.tracers:
            t.close()


class CallbackTracer(Tracer):
    """Adapter wrapping plain callables as a tracer.

    ``on_iteration`` receives the engine context once per executed
    iteration; ``on_event`` receives each event dict.
    """

    def __init__(
        self,
        on_iteration: "Callable[[Any], None] | None" = None,
        on_event: "Callable[[dict[str, Any]], None] | None" = None,
    ) -> None:
        super().__init__()
        self._on_iteration = on_iteration
        self._on_event = on_event

    def write(self, event: "dict[str, Any]") -> None:
        if self._on_event is not None:
            self._on_event(event)

    def iteration(self, ctx) -> None:
        if self._on_iteration is not None:
            self._on_iteration(ctx)

    @property
    def observes_iterations(self) -> bool:
        return self._on_iteration is not None


def resolve_tracer(tracer: "Tracer | None") -> "Tracer | None":
    """Collapse disabled sinks to ``None`` (the hot-path contract).

    ``None`` and :class:`NullTracer` instances resolve to ``None`` so
    every emission site downstream is a single ``is not None`` test.
    Any other :class:`Tracer` passes through
    unchanged; non-tracers raise ``TypeError`` immediately rather than
    failing mid-solve.
    """
    if tracer is None or type(tracer) is NullTracer:
        return None
    if isinstance(tracer, Tracer):
        return tracer
    raise TypeError(
        f"tracer must be a repro.obs.Tracer or None, got {type(tracer).__name__}"
    )
