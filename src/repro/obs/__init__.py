"""Observability: structured tracing, metrics, and trace analysis.

Three legs, all zero-overhead when off:

- :mod:`repro.obs.tracer` — the :class:`Tracer` event protocol with
  :class:`NullTracer` (disabled; collapsed out of the hot path by
  :func:`resolve_tracer`), :class:`InMemoryTracer` and
  :class:`JsonlTracer` sinks, plus combinators.
- :mod:`repro.obs.metrics` — process-local monotonic counters and
  section timers (:data:`METRICS`), merged across campaign workers
  into ``telemetry`` store records.
- :mod:`repro.obs.summarize` — offline aggregation of JSONL trace
  shards (``repro trace summarize``).

See ``docs/DESIGN.md`` §8 for the event schema and overhead budget.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.obs.metrics import (
        METRICS,
        Metrics,
        diff_snapshots,
        get_metrics,
        merge_snapshots,
    )
    from repro.obs.summarize import (
        TraceSummary,
        format_trace_summary,
        iter_trace_events,
        summarize_trace,
    )
    from repro.obs.tracer import (
        EVENT_KINDS,
        FAULT_EVENT_KINDS,
        NULL_TRACER,
        SCHEMA_VERSION,
        CallbackTracer,
        InMemoryTracer,
        JsonlTracer,
        MultiTracer,
        NullTracer,
        Tracer,
        resolve_tracer,
    )

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "FAULT_EVENT_KINDS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "InMemoryTracer",
    "JsonlTracer",
    "MultiTracer",
    "CallbackTracer",
    "resolve_tracer",
    "Metrics",
    "METRICS",
    "get_metrics",
    "merge_snapshots",
    "diff_snapshots",
    "TraceSummary",
    "iter_trace_events",
    "summarize_trace",
    "format_trace_summary",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.metrics": (
            "METRICS",
            "Metrics",
            "diff_snapshots",
            "get_metrics",
            "merge_snapshots",
        ),
        "repro.obs.summarize": (
            "TraceSummary",
            "format_trace_summary",
            "iter_trace_events",
            "summarize_trace",
        ),
        "repro.obs.tracer": (
            "EVENT_KINDS",
            "FAULT_EVENT_KINDS",
            "NULL_TRACER",
            "SCHEMA_VERSION",
            "CallbackTracer",
            "InMemoryTracer",
            "JsonlTracer",
            "MultiTracer",
            "NullTracer",
            "Tracer",
            "resolve_tracer",
        ),
    },
)
