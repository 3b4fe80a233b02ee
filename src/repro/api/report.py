"""Reporting over campaign result stores (``repro report``).

A campaign's store is its durable record: one entry per completed
task, carrying the task's full parameters and aggregated statistics.
This module folds a store into a human-readable summary — one line per
(experiment, method, backend, scheme) group with task counts,
repetition totals, time and convergence aggregates — without
re-running anything.  Stores written since the observability layer
(:mod:`repro.obs`) also carry ``telemetry`` records; when present they
render as an extra block (cache hit rates, buffer-pool reuse,
per-phase time shares), and older stores report exactly as before.

Any store backend works (:mod:`repro.store`): pass a bare JSONL path,
``sharded:dir`` (JSONL shards), ``sqlite:file.db`` or a constructed
backend.  The
fold is *streaming*: records are consumed one at a time from
``iter_records()`` and reduced on the spot to the handful of scalars a
group needs, so a multi-GB store never materializes — and a *partial*
store (campaign still running, or killed mid-flight) summarizes
exactly the records it already holds.  Within each group the float
accumulation runs in a canonical order (sorted by record hash), so
the same record set yields a bit-identical report from every backend
regardless of on-disk layout — the invariant the migration round-trip
tests pin down.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.store import opened_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.protocol import StoreBackend

__all__ = ["GroupSummary", "StoreSummary", "summarize_store", "format_summary"]


@dataclass(frozen=True)
class GroupSummary:
    """Aggregate of one (experiment, method, backend, scheme) group."""

    experiment: str
    method: str
    backend: str
    scheme: str
    tasks: int
    reps: int  #: total repetitions across the group's tasks
    mean_time: float  #: average of per-task mean simulated times
    min_time: float
    max_time: float
    convergence_rate: float  #: rep-weighted average convergence rate
    #: Total repetition budget (the tasks' rep caps); equals ``reps``
    #: for fixed-count campaigns, larger when adaptive sampling
    #: (:mod:`repro.adaptive`) stopped early.  0 for legacy records
    #: whose tasks carry no rep count.
    reps_cap: int = 0


@dataclass(frozen=True)
class StoreSummary:
    """Everything ``repro report`` prints about one store."""

    path: str
    records: int  #: parseable task records in the store
    skipped: int  #: records without usable statistics (foreign schema)
    groups: "list[GroupSummary]"
    #: Merged campaign telemetry (``kind="telemetry"`` records written
    #: by the executor), or ``None`` for stores predating it.
    telemetry: "dict | None" = None
    #: ``kind="quarantine"`` records (poison tasks the self-healing
    #: harness gave up on, :mod:`repro.chaos`); 0 for healthy stores.
    quarantined: int = 0
    #: ``kind="partial"`` records — in-flight per-rep checkpoints of
    #: adaptive tasks (:mod:`repro.adaptive`) that were interrupted
    #: before their final record; a ``--resume`` picks them up.
    partials: int = 0

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def summarize_store(
    store: "StoreBackend | str | os.PathLike[str]",
) -> StoreSummary:
    """Stream a result store and fold it into a :class:`StoreSummary`.

    Records missing the executor's ``task``/``stats`` schema (for
    example hand-written entries) are counted as ``skipped`` rather
    than failing the whole report.  ``telemetry`` records (which the
    executor appends when a traced-or-not campaign runs fresh tasks
    against a store) are folded into :attr:`StoreSummary.telemetry` —
    several of them (a resumed campaign appends one per run) merge by
    counter addition; stores predating the telemetry schema simply
    report ``telemetry=None``.

    The pass is single and streaming: each record is reduced to a
    small projection — its group key and five statistics scalars —
    before the next one is read, with last-wins per hash.  Memory is
    proportional to the number of *distinct tasks*, never to record
    payloads or file size.  A store named by URL is closed again before
    returning; a store instance stays open.
    """
    with opened_store(store) as store:
        needed = ("mean_time", "min_time", "max_time", "convergence_rate", "reps")
        #: hash -> small projection: ("telemetry", rec), ("skip",), or
        #: ("stats", group_key, reps, mean, min, max, conv).  Dict order =
        #: first-appearance, values = last-wins — the same fold load() does.
        latest: "dict[str, tuple]" = {}
        for rec in store.iter_records():
            h = rec["hash"]
            if rec.get("kind") == "telemetry":
                latest[h] = ("telemetry", rec)
                continue
            if rec.get("kind") == "quarantine":
                latest[h] = ("quarantine",)
                continue
            if rec.get("kind") == "partial":
                latest[h] = ("partial",)
                continue
            task = rec.get("task")
            stats = rec.get("stats")
            if not isinstance(task, dict) or not isinstance(stats, dict) \
                    or any(k not in stats for k in needed):
                latest[h] = ("skip",)
                continue
            key = (
                str(task.get("experiment", "?")),
                str(task.get("method", "cg")),
                # Pre-backend stores carry no backend field; they ran the
                # reference kernels by definition.
                str(task.get("backend", "reference")),
                str(task.get("scheme", "?")),
            )
            latest[h] = (
                "stats",
                key,
                stats["reps"],
                stats["mean_time"],
                stats["min_time"],
                stats["max_time"],
                stats["convergence_rate"],
                int(task.get("reps", 0)),
            )

    groups: "dict[tuple[str, str, str, str], list[tuple]]" = {}
    skipped = 0
    quarantined = 0
    partials = 0
    telemetry_recs: "list[dict]" = []
    # Canonical accumulation order — (group, hash) — so a migrated
    # store reports bit-identically however its backend laid records
    # out on disk.
    for h in sorted(latest):
        entry = latest[h]
        if entry[0] == "stats":
            groups.setdefault(entry[1], []).append(entry[2:])
    for entry in latest.values():
        if entry[0] == "telemetry":
            telemetry_recs.append(entry[1])
        elif entry[0] == "skip":
            skipped += 1
        elif entry[0] == "quarantine":
            quarantined += 1
        elif entry[0] == "partial":
            partials += 1

    summaries: "list[GroupSummary]" = []
    for (experiment, method, backend, scheme), rows in sorted(groups.items()):
        reps = sum(r[0] for r in rows)
        summaries.append(
            GroupSummary(
                experiment=experiment,
                method=method,
                backend=backend,
                scheme=scheme,
                tasks=len(rows),
                reps=reps,
                mean_time=sum(r[1] for r in rows) / len(rows),
                min_time=min(r[2] for r in rows),
                max_time=max(r[3] for r in rows),
                convergence_rate=(
                    sum(r[4] * r[0] for r in rows) / reps if reps else 0.0
                ),
                reps_cap=sum(r[5] for r in rows),
            )
        )
    return StoreSummary(
        path=store.url,
        records=len(latest) - len(telemetry_recs) - partials,
        skipped=skipped,
        groups=summaries,
        telemetry=_merge_telemetry(telemetry_recs),
        quarantined=quarantined,
        partials=partials,
    )


def _merge_telemetry(recs: "list[dict]") -> "dict | None":
    """Fold every ``telemetry`` store record into one counters/timers
    view (resumed campaigns append one record per run)."""
    if not recs:
        return None
    from repro.obs.metrics import merge_snapshots

    parts = [
        {
            "counters": r.get("counters") or {},
            "timers": r.get("timers") or {},
        }
        for r in recs
    ]
    merged = merge_snapshots(parts)
    return {
        "records": len(recs),
        "fresh": sum(int(r.get("fresh", 0)) for r in recs),
        "cached": sum(int(r.get("cached", 0)) for r in recs),
        "counters": merged["counters"],
        "timers": merged["timers"],
    }


def _rate(hit: float, miss: float) -> "float | None":
    total = hit + miss
    return hit / total if total > 0 else None


def _format_telemetry(tele: dict) -> "list[str]":
    """The telemetry block of ``repro report`` (omitted entirely for
    stores without telemetry records — every ratio guards its
    denominator, so partial counter sets render fine)."""
    c = tele.get("counters", {})
    lines = [
        "",
        f"telemetry ({tele['records']} record(s), "
        f"{tele['fresh']} fresh / {tele['cached']} cached task(s)):",
    ]
    solves = c.get("engine.solves", 0)
    if solves:
        lines.append(f"  solves: {int(solves)} "
                     f"({int(c.get('engine.converged', 0))} converged, "
                     f"{int(c.get('engine.diverged', 0))} diverged)")
    accounted = c.get("engine.iterations_executed", 0)
    if accounted and "engine.iterations_virtual" in c:  # absent from older stores
        real = accounted - c["engine.iterations_virtual"]
        line = (f"  iterations: {int(real)} executed for real / {int(accounted)} "
                f"accounted ({100 * real / accounted:.1f}%), "
                f"{int(c.get('engine.iterations_replayed', 0))} replayed")
        if "engine.products_guarded" in c:  # absent from older stores
            line += f"; {int(c['engine.products_guarded'])} guarded products"
        lines.append(line)
    cache = _rate(c.get("abft.checksum_cache.hit", 0), c.get("abft.checksum_cache.miss", 0))
    if cache is not None:
        lines.append(f"  checksum-cache hit rate: {100 * cache:.1f}%")
    live = _rate(c.get("workspace.live_restore", 0), c.get("workspace.live_copy", 0))
    if live is not None:
        lines.append(f"  live-matrix restore rate: {100 * live:.1f}%")
    reqs = c.get("workspace.buffer_requests", 0)
    allocs = c.get("workspace.buffer_allocs", 0)
    if reqs > 0:
        lines.append(f"  buffer-pool reuse: {100 * (1 - allocs / reqs):.1f}% "
                     f"({int(allocs)} alloc(s) / {int(reqs)} request(s))")
    phases = {
        name: c.get(f"engine.time_units.{name}", 0.0)
        for name in ("useful", "wasted", "verification", "checkpoint", "recovery")
    }
    total = sum(phases.values())
    if total > 0:
        share = " ".join(f"{k}={100 * v / total:.1f}%" for k, v in phases.items())
        lines.append(f"  time shares: {share}")
    return lines


def format_summary(summary: StoreSummary) -> str:
    """Render a :class:`StoreSummary` as an aligned text table."""
    lines = [
        f"store: {summary.path}",
        f"records: {summary.records}"
        + (f" ({summary.skipped} without usable statistics)" if summary.skipped else ""),
    ]
    if summary.quarantined:
        lines.append(
            f"quarantined: {summary.quarantined} poison task(s) — "
            "re-queue with `repro store compact --drop-quarantined`"
        )
    if summary.partials:
        lines.append(
            f"partials: {summary.partials} in-flight adaptive "
            "checkpoint(s) — a --resume against this store continues them"
        )
    if summary.groups:
        # Groups where adaptive sampling stopped under the rep budget
        # grow a trailing "saved" column; fixed-count stores keep the
        # historical layout byte-for-byte.
        with_saved = any(g.reps_cap > g.reps for g in summary.groups)
        head = (
            f"{'experiment':>16} {'method':>9} {'backend':>9} {'scheme':>17} "
            f"{'tasks':>6} {'reps':>6} {'mean_t':>9} {'min_t':>9} "
            f"{'max_t':>9} {'conv%':>6}"
        )
        if with_saved:
            head += f" {'saved':>6}"
        lines += ["", head, "-" * len(head)]
        for g in summary.groups:
            line = (
                f"{g.experiment:>16} {g.method:>9} {g.backend:>9} "
                f"{g.scheme:>17} {g.tasks:>6} "
                f"{g.reps:>6} {g.mean_time:>9.2f} {g.min_time:>9.2f} "
                f"{g.max_time:>9.2f} {g.convergence_rate * 100:>6.1f}"
            )
            if with_saved:
                line += f" {max(0, g.reps_cap - g.reps):>6}"
            lines.append(line)
        saved = sum(max(0, g.reps_cap - g.reps) for g in summary.groups)
        if saved:
            cap = sum(g.reps_cap for g in summary.groups)
            lines.append(
                f"adaptive sampling saved {saved} of {cap} repetition(s) "
                f"({100.0 * saved / cap:.1f}%)"
            )
    if summary.telemetry is not None:
        lines += _format_telemetry(summary.telemetry)
    return "\n".join(lines) + "\n"
