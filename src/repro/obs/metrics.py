"""Lightweight process-local metrics: counters and section timers.

The observability layer's second leg (the first is event tracing):
monotonic counters and histogram-style timers accumulated in a
process-global :data:`METRICS` registry.  The engine folds one batch of
counter updates per *solve* (never per iteration), the workspace and
ABFT cache count reuse hits, and the campaign executor snapshots the
registry per worker, diffs it against the worker's baseline and merges
the deltas into the result store as a ``telemetry`` record that
``repro report`` surfaces.

Counters are plain dict entries (``int`` or ``float``); timers keep
``{count, total, min, max}`` seconds and are fed either directly via
:meth:`Metrics.observe` or through the :meth:`Metrics.time_section`
context manager.  Everything is process-local and fork-aware by
*convention*: a forked worker inherits the parent's values, so
consumers must diff against a baseline snapshot taken inside the
worker (see ``repro.campaign.executor``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterable

__all__ = [
    "Metrics",
    "METRICS",
    "get_metrics",
    "merge_snapshots",
    "diff_snapshots",
]


class Metrics:
    """A registry of monotonic counters and section timers."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._timers: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def inc(self, name: str, value: "int | float" = 1) -> None:
        """Add ``value`` (default 1) to the named counter."""
        self._counters[name] = self._counters.get(name, 0) + value

    def inc_many(self, items: "Iterable[tuple[str, int | float]]") -> None:
        """:meth:`inc` for every ``(name, value)`` pair, in one call (the
        engine folds a solve's counters through it)."""
        counters = self._counters
        for name, value in items:
            counters[name] = counters.get(name, 0) + value

    def count(self, name: str) -> "int | float":
        """Current value of the named counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample under the named timer."""
        t = self._timers.get(name)
        if t is None:
            self._timers[name] = {
                "count": 1,
                "total": seconds,
                "min": seconds,
                "max": seconds,
            }
        else:
            t["count"] += 1
            t["total"] += seconds
            if seconds < t["min"]:
                t["min"] = seconds
            if seconds > t["max"]:
                t["max"] = seconds

    @contextmanager
    def time_section(self, name: str):
        """Context manager timing its body into the named timer."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(name, time.perf_counter() - t0)

    def timer(self, name: str) -> "dict[str, float] | None":
        """Stats dict ``{count, total, min, max}`` or ``None``."""
        t = self._timers.get(name)
        return dict(t) if t is not None else None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "dict[str, Any]":
        """Deep-copied point-in-time view of all counters and timers."""
        return {
            "counters": dict(self._counters),
            "timers": {k: dict(v) for k, v in self._timers.items()},
        }

    def reset(self) -> None:
        """Drop all counters and timers (tests and benchmarks only)."""
        self._counters.clear()
        self._timers.clear()


#: The process-global registry every instrumented layer writes to.
METRICS = Metrics()


def get_metrics() -> Metrics:
    """The process-global :class:`Metrics` registry."""
    return METRICS


def merge_snapshots(snapshots: "list[dict[str, Any]]") -> "dict[str, Any]":
    """Sum counter/timer snapshots from several workers into one.

    Counters add; timers add ``count``/``total`` and take the
    element-wise min/max.  Empty input merges to an empty snapshot.
    """
    counters: dict[str, float] = {}
    timers: dict[str, dict[str, float]] = {}
    for snap in snapshots:
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, t in snap.get("timers", {}).items():
            cur = timers.get(k)
            if cur is None:
                timers[k] = dict(t)
            else:
                cur["count"] += t["count"]
                cur["total"] += t["total"]
                cur["min"] = min(cur["min"], t["min"])
                cur["max"] = max(cur["max"], t["max"])
    return {"counters": counters, "timers": timers}


def diff_snapshots(end: "dict[str, Any]", start: "dict[str, Any]") -> "dict[str, Any]":
    """Delta ``end - start`` between two snapshots of one registry.

    Needed because forked campaign workers inherit the parent's
    cumulative values: the worker's contribution is the difference
    against the baseline captured when the worker first ran.  Counters
    and timer ``count``/``total`` subtract (entries that did not move
    are dropped); timer ``min``/``max`` are taken from ``end`` — they
    are not invertible, and the window extrema are close enough for
    reporting.
    """
    counters: dict[str, float] = {}
    base_c = start.get("counters", {})
    for k, v in end.get("counters", {}).items():
        d = v - base_c.get(k, 0)
        if d:
            counters[k] = d
    timers: dict[str, dict[str, float]] = {}
    base_t = start.get("timers", {})
    for k, t in end.get("timers", {}).items():
        b = base_t.get(k)
        if b is None:
            timers[k] = dict(t)
            continue
        dcount = t["count"] - b["count"]
        if dcount > 0:
            timers[k] = {
                "count": dcount,
                "total": t["total"] - b["total"],
                "min": t["min"],
                "max": t["max"],
            }
    return {"counters": counters, "timers": timers}
