"""Result containers and paper-style rendering.

:class:`RunStatistics` is the aggregate of one parameter point's
repetitions (:func:`repro.sim.engine.repeat_run` builds it; campaign
records carry it as their ``"stats"`` payload).  It lives here, with the
rows built from it, so that aggregation and reporting read records
without importing the rep loop or NumPy.

The formatters print the same rows/series the paper reports: Table 1's
``(id, n, density, s̃, Et(s̃), s*, Et(s*), l)`` per scheme, and Figure
1's per-matrix time-vs-MTBF series (rendered as aligned text columns —
this library has no plotting dependency, but the CSV output drops
straight into any plotting tool).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from operator import attrgetter

__all__ = [
    "RunStatistics",
    "PER_REP_KEYS",
    "DEFAULT_CONFIDENCE",
    "Table1Row",
    "Figure1Point",
    "format_table1",
    "format_figure1",
    "to_csv",
]


#: Keys of the per-repetition payload dict shared by
#: :func:`repro.sim.engine.repeat_run` (``per_rep=`` / ``prior=`` /
#: ``on_batch``) and the campaign partial-progress records: parallel
#: lists, one entry per repetition, in repetition order.  Because the
#: values are plain ints/floats/bools they JSON round-trip exactly, so
#: a resumed run continues from a partial record bit-identically.
PER_REP_KEYS = (
    "times",
    "iterations",
    "rollbacks",
    "corrections",
    "faults",
    "converged",
)

#: Confidence level used for the CI reported on fixed-count runs
#: (adaptive runs use their policy's confidence instead).
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class RunStatistics:
    """Aggregate of repeated runs at one parameter point."""

    mean_time: float  #: mean simulated execution time (units of Titer)
    std_time: float
    min_time: float
    max_time: float
    mean_iterations: float  #: mean executed iterations
    mean_rollbacks: float
    mean_corrections: float
    mean_faults: float
    convergence_rate: float  #: fraction of reps that converged
    reps: int
    #: Student-t CI bounds on ``mean_time`` at ``confidence`` (None when
    #: ``reps < 2`` or when rehydrating records from before the adaptive
    #: layer existed).
    ci_low: "float | None" = None
    ci_high: "float | None" = None
    confidence: "float | None" = None

    @property
    def sem_time(self) -> float:
        """Standard error of the mean time."""
        return self.std_time / math.sqrt(self.reps) if self.reps > 1 else 0.0

    def to_json(self) -> dict:
        """The record's ``"stats"`` payload (every field is a scalar, so
        this equals ``dataclasses.asdict`` without its deep copy);
        ``RunStatistics(**payload)`` inverts it."""
        return dict(zip(_STATS_FIELDS, _stats_values(self)))


_STATS_FIELDS = tuple(f.name for f in fields(RunStatistics))
_stats_values = attrgetter(*_STATS_FIELDS)

@dataclass(frozen=True)
class Table1Row:
    """One matrix's model-validation results for one (method, scheme)."""

    uid: int
    n: int
    density: float
    scheme: str
    s_model: int  #: s̃ — model-predicted interval
    time_model: float  #: Et(s̃) — measured mean time at s̃
    s_best: int  #: s* — empirically best interval
    time_best: float  #: Et(s*) — measured mean time at s*
    reps: int  #: repetitions per sweep point (the cap, for adaptive runs)
    method: str = "cg"  #: solver axis (Method value string)
    ci_low: "float | None" = None  #: CI lower bound on Et(s̃) (None: unknown)
    ci_high: "float | None" = None  #: CI upper bound on Et(s̃)
    reps_used: int = 0  #: total repetitions actually executed across the sweep
    reps_cap: int = 0  #: total repetition budget across the sweep (0: unknown)

    @property
    def loss_percent(self) -> float:
        """``l = (Et(s̃) − Et(s*)) / Et(s*) · 100`` — the paper's loss metric."""
        if self.time_best == 0:
            return 0.0
        return (self.time_model - self.time_best) / self.time_best * 100.0


@dataclass(frozen=True)
class Figure1Point:
    """One point of one (method, scheme) series in one Figure-1 panel."""

    uid: int
    scheme: str
    alpha: float  #: fault-rate constant; x-axis is 1/alpha
    mean_time: float
    sem_time: "float | None"  #: standard error of the mean; None when reps < 2
    s_used: int
    d_used: int
    method: str = "cg"  #: solver axis (Method value string)
    ci_low: "float | None" = None  #: CI lower bound on mean_time (None: unknown)
    ci_high: "float | None" = None  #: CI upper bound on mean_time
    reps_used: int = 0  #: repetitions actually executed (0: unknown/legacy)
    reps_cap: int = 0  #: repetition budget of the task (0: unknown/legacy)

    @property
    def normalized_mtbf(self) -> float:
        """The paper's x-axis: 1/α."""
        return 1.0 / self.alpha


def _ordered_methods(items) -> "list[str]":
    """Distinct method names in first-appearance order."""
    out: list[str] = []
    for it in items:
        if it.method not in out:
            out.append(it.method)
    return out


def format_table1(rows: "list[Table1Row]") -> str:
    """Render Table 1 in the paper's layout (two schemes side by side).

    Rows must come in (uid, scheme) pairs covering 'abft-detection' and
    'abft-correction'; missing halves render as blanks.  Multi-method
    campaigns render one block per method; a single-method (classic)
    campaign keeps the paper's exact layout.
    """
    methods = _ordered_methods(rows)
    buf = io.StringIO()
    for method in methods:
        if len(methods) > 1:
            buf.write(f"method: {method}\n")
        _format_table1_block(buf, [r for r in rows if r.method == method])
        if len(methods) > 1:
            buf.write("\n")
    return buf.getvalue()


def _format_table1_block(buf: io.StringIO, rows: "list[Table1Row]") -> None:
    by_uid: dict[int, dict[str, Table1Row]] = {}
    for r in rows:
        by_uid.setdefault(r.uid, {})[r.scheme] = r
    # Rows carrying CI bounds grow two trailing columns (the CI
    # half-width on Et(s̃) per scheme); legacy rows keep the paper's
    # exact layout.
    with_ci = any(r.ci_low is not None for r in rows)
    head = (
        f"{'id':>6} {'n':>7} {'density':>9} | "
        f"{'s~1':>4} {'Et(s~1)':>9} {'s*1':>4} {'Et(s*1)':>9} {'l1%':>7} | "
        f"{'s~2':>4} {'Et(s~2)':>9} {'s*2':>4} {'Et(s*2)':>9} {'l2%':>7}"
    )
    if with_ci:
        head += f" | {'±1':>7} {'±2':>7}"
    buf.write(head + "\n")
    buf.write("-" * len(head) + "\n")
    for uid in sorted(by_uid):
        pair = by_uid[uid]
        det = pair.get("abft-detection")
        cor = pair.get("abft-correction")
        meta = det or cor
        assert meta is not None
        buf.write(f"{uid:>6} {meta.n:>7} {meta.density:>9.2e} | ")
        for r in (det, cor):
            if r is None:
                buf.write(f"{'-':>4} {'-':>9} {'-':>4} {'-':>9} {'-':>7}")
            else:
                buf.write(
                    f"{r.s_model:>4} {r.time_model:>9.2f} "
                    f"{r.s_best:>4} {r.time_best:>9.2f} {r.loss_percent:>7.2f}"
                )
            buf.write(" | " if r is det else "")
        if with_ci:
            buf.write(" |")
            for r in (det, cor):
                if r is None or r.ci_low is None:
                    buf.write(f" {'n/a':>7}")
                else:
                    buf.write(f" {(r.ci_high - r.ci_low) / 2.0:>7.2f}")
        buf.write("\n")
    used = sum(r.reps_used for r in rows)
    cap = sum(r.reps_cap for r in rows)
    if cap > used:
        buf.write(
            f"adaptive sampling: {used}/{cap} reps executed "
            f"(saved {cap - used}, {100.0 * (cap - used) / cap:.1f}%)\n"
        )


def format_figure1(points: "list[Figure1Point]") -> str:
    """Render Figure 1's series as one text block per matrix panel.

    Multi-method campaigns label each series ``method:scheme``; a
    single-method (classic) campaign keeps the paper's scheme-only
    column labels.
    """
    multi = len(_ordered_methods(points)) > 1

    def label(p: Figure1Point) -> str:
        return f"{p.method}:{p.scheme}" if multi else p.scheme

    by_uid: dict[int, list[Figure1Point]] = {}
    for p in points:
        by_uid.setdefault(p.uid, []).append(p)
    buf = io.StringIO()
    for uid in sorted(by_uid):
        pts = by_uid[uid]
        series = sorted({label(p) for p in pts})
        width = max(18, *(len(s) for s in series))
        mtbfs = sorted({p.normalized_mtbf for p in pts})
        with_ci = any(p.ci_low is not None for p in pts)
        buf.write(f"Matrix #{uid} — execution time (Titer units) vs normalized MTBF (1/alpha)")
        if with_ci:
            buf.write("; ± is the CI half-width")
        buf.write("\n")
        buf.write(f"{'1/alpha':>10} " + " ".join(f"{s:>{width}}" for s in series) + "\n")
        lookup = {(p.normalized_mtbf, label(p)): p for p in pts}
        for m in mtbfs:
            buf.write(f"{m:>10.0f} ")
            for s in series:
                p = lookup.get((m, s))
                if p:
                    # Error term: CI half-width when the point carries
                    # bounds, else the legacy standard error; a lone
                    # repetition has neither and renders "±n/a" (a
                    # numeric 0.0 would claim zero uncertainty).
                    if p.ci_low is not None:
                        err = (p.ci_high - p.ci_low) / 2.0
                    else:
                        err = p.sem_time
                    if err is None:
                        cell = f"{p.mean_time:>12.1f}±{'n/a':<5}"
                    else:
                        cell = f"{p.mean_time:>12.1f}±{err:<5.1f}"
                    buf.write(f"{cell:>{width}}")
                else:
                    buf.write(f"{'-':>{width}}")
                buf.write(" ")
            buf.write("\n")
        used = sum(p.reps_used for p in pts)
        cap = sum(p.reps_cap for p in pts)
        if cap > used:
            buf.write(
                f"adaptive sampling: {used}/{cap} reps executed "
                f"(saved {cap - used}, {100.0 * (cap - used) / cap:.1f}%)\n"
            )
        buf.write("\n")
    return buf.getvalue()


def to_csv(points: "list", path: str) -> None:
    """Dump any dataclass list as CSV (column order = field order)."""
    import csv
    import dataclasses

    if not points:
        raise ValueError("nothing to write")
    fields = [f.name for f in dataclasses.fields(points[0])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for p in points:
            writer.writerow([getattr(p, f) for f in fields])
