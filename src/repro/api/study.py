"""Declarative parameter studies over the campaign engine.

A :class:`Study` names a sweep — which axes vary, which stay fixed —
and compiles it to the flat, content-hashable
:class:`~repro.campaign.spec.TaskSpec` list the campaign engine
executes.  Everything the engine gives the paper's own drivers comes
for free: ``jobs`` fan-out over worker processes (bit-identical to
serial), a result store keyed by task content hash (any
:mod:`repro.store` backend — single-file JSONL, ``sharded:`` or
``sqlite:``), and resume of a killed sweep without recomputation.
Saved specs (:meth:`Study.save`) feed ``repro study run SPEC``.

::

    from repro import Study

    study = (Study("interval-sensitivity")
             .axis("s", range(2, 33, 2))
             .fix(uid=2213, alpha=1/16, scale=48, reps=3)
             .metrics("mean_time", "convergence_rate"))
    result = study.run(jobs=4, store="sweep.jsonl")
    for point in result.points():
        print(point.s, point.stats.mean_time)

Axes
----
``uid`` (suite matrix id), ``method``, ``backend`` (``reference`` or
``scipy``, see :mod:`repro.backends`), ``scheme``, ``alpha`` (fault
constant) or ``mtbf`` (its reciprocal — declare one, not both), ``s``
(checkpoint interval; ``"auto"`` = model-optimal) and ``d``
(verification interval; ``"auto"`` = Chen's value for ONLINE-DETECTION,
1 for the ABFT schemes).  The grid is the full product, enumerated in
the canonical nesting ``uid → method → backend → scheme → alpha → s →
d`` regardless of declaration order, so task hashes never depend on
call order.  Invalid combinations are skipped rather than aborting the
sweep: schemes a solver does not support (ONLINE-DETECTION under
anything but CG, mirroring :class:`~repro.campaign.spec.CampaignSpec`)
and ``d > 1`` under an ABFT scheme (they verify every iteration).
The two kernels share fault streams at equal points (the kernel enters
the task hash but not the seed derivation), so ``axis("backend",
["reference", "scipy"])`` is a controlled kernel comparison.

The paper's own evaluation artifacts are preset studies:
:meth:`Study.table1` / :meth:`Study.figure1` wrap the exact
:class:`CampaignSpec` grids the drivers have always run, so their
results remain bit-identical to the golden fixtures.

A study serializes to JSON (:meth:`to_json` / :meth:`save`) and back
(:meth:`from_json` / :meth:`load`); the round trip preserves every
task hash, so an exported spec re-run with ``--resume`` serves all
completed work from the store.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.campaign.aggregate import (
    aggregate_figure1,
    aggregate_table1,
    stats_from_record,
)
from repro.campaign.spec import TABLE1_ALPHA, CampaignSpec, TaskSpec
from repro.core.methods import Method, Scheme
from repro.sim.results import RunStatistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.protocol import StoreBackend

__all__ = ["Study", "StudyPoint", "StudyResult"]

#: Sweepable axes in canonical nesting order (outermost first).
AXES: tuple[str, ...] = ("uid", "method", "backend", "scheme", "alpha", "s", "d")

#: Per-point defaults when an axis is neither swept nor fixed.
POINT_DEFAULTS: dict = {
    "uid": 2213,
    "method": "cg",
    "backend": "reference",
    "scheme": "abft-correction",
    "alpha": 1.0 / 16.0,
    "s": "auto",
    "d": "auto",
}

#: Campaign-wide settings (not per-point axes).  ``sampling`` is the
#: adaptive sequential-stopping policy spec (:mod:`repro.adaptive`);
#: ``""`` keeps fixed-count sampling, in which case ``reps`` applies.
SETTING_DEFAULTS: dict = {
    "scale": 16,
    "reps": 10,
    "eps": 1e-6,
    "base_seed": 2015,
    "sampling": "",
}


#: The RunStatistics fields with a default (``None``): a record written
#: before they existed lacks them.
_OPTIONAL_STATS = frozenset(f.name for f in fields(RunStatistics) if f.default is None)

#: ASCII unit separator: joins the formatted cells of one table row (no
#: axis value or formatted number can contain it).
_CELL_SEP = "\x1f"

def _canonical_sampling(spec) -> str:
    """Normalize a sampling spec (policy / string / None) to the
    canonical string form stored in task identity (``""`` = fixed)."""
    from repro.adaptive import resolve_sampling

    policy = resolve_sampling(spec)
    return "" if policy is None else policy.spec()


@dataclass(frozen=True)
class StudyPoint:
    """One executed grid point with its aggregated statistics."""

    uid: int
    method: str
    backend: str  #: kernel backend the point ran on
    scheme: str
    alpha: float
    s: int
    d: int
    n: int  #: matrix dimension actually run
    density: float
    stats: object  #: :class:`~repro.sim.results.RunStatistics`

    @property
    def normalized_mtbf(self) -> float:
        """The paper's x-axis: 1/α."""
        return 1.0 / self.alpha


class StudyResult:
    """Tasks and records of one executed study, with typed views."""

    def __init__(self, tasks: "list[TaskSpec]", records: "list[dict]",
                 metrics: "tuple[str, ...]" = ("mean_time", "convergence_rate")) -> None:
        if len(tasks) != len(records):
            raise ValueError(f"{len(tasks)} tasks but {len(records)} records")
        self.tasks = tasks
        self.records = records
        self.metrics = metrics

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        """Stream :meth:`points` one at a time (task order, quarantined
        tasks skipped) without building the list."""
        for task, rec in zip(self.tasks, self.records):
            if rec.get("kind") == "quarantine":
                continue
            yield StudyPoint(
                uid=task.uid,
                method=task.method,
                backend=task.backend,
                scheme=task.scheme,
                alpha=task.alpha,
                s=task.s,
                d=task.d,
                n=rec["n"],
                density=rec["density"],
                stats=stats_from_record(rec),
            )

    @property
    def quarantined(self) -> int:
        """How many tasks ended as ``kind="quarantine"`` records
        (poison tasks the self-healing harness gave up on — see
        :mod:`repro.chaos`).  Zero for a fully healthy run."""
        return sum(
            1
            for rec in self.records
            if rec is not None and rec.get("kind") == "quarantine"
        )

    @property
    def total_reps(self) -> int:
        """Repetitions actually executed across every non-quarantined task."""
        return sum(
            rec["stats"]["reps"]
            for rec in self.records
            if rec is not None and rec.get("kind") != "quarantine"
        )

    @property
    def reps_saved(self) -> int:
        """Repetitions the adaptive stopping rule did not need: the sum
        of ``task.reps − stats.reps`` over executed tasks (0 for a
        fixed-count study, where every task runs its full count)."""
        return sum(
            max(0, task.reps - rec["stats"]["reps"])
            for task, rec in zip(self.tasks, self.records)
            if rec is not None and rec.get("kind") != "quarantine"
        )

    def points(self) -> "list[StudyPoint]":
        """One typed point per executed task, in task order.

        Quarantined tasks carry no result payload and are skipped;
        check :attr:`quarantined` to see whether the view is partial.
        """
        return list(self)

    def table1_rows(self):
        """Fold a ``table1`` preset study into the paper's Table-1 rows."""
        return aggregate_table1(self.tasks, self.records)

    def figure1_points(self):
        """Fold a ``figure1`` preset study into the paper's Figure-1 points."""
        return aggregate_figure1(self.tasks, self.records)

    def format_table(self) -> str:
        """Plain-text table: the point coordinates plus the study's metrics.

        Formats straight from the records: the coordinates come from
        the task and ``n`` and the metrics from the ``"stats"`` payload,
        so no :class:`StudyPoint` or :class:`RunStatistics` is built per
        row (``sem_time``, a derived metric, is the one exception).
        """
        point_cols = ("uid", "method", "backend", "scheme", "alpha", "s", "d", "n")
        cols = point_cols + tuple(self.metrics)
        coords = attrgetter(*point_cols[:-1])

        def cell(v) -> str:
            return f"{v:.4g}" if isinstance(v, float) else str(v)

        def metric(rec: dict, name: str):
            if name == "sem_time":
                return stats_from_record(rec).sem_time
            if name in _OPTIONAL_STATS:  # absent from records of older schemas
                return rec["stats"].get(name)
            return rec["stats"][name]

        # One pass formats every cell once and learns the column widths;
        # a row waits for them as one joined string, not a list of cells.
        widths = [len(c) for c in cols]
        rows = []
        for task, rec in zip(self.tasks, self.records):
            if rec.get("kind") == "quarantine":
                continue
            cells = [cell(v) for v in coords(task)]
            cells.append(cell(rec["n"]))
            cells += [cell(metric(rec, c)) for c in self.metrics]
            widths = list(map(max, widths, map(len, cells)))
            rows.append(_CELL_SEP.join(cells))
        head = " ".join(map(str.rjust, cols, widths))
        out = io.StringIO()
        out.write(f"{head}\n{'-' * len(head)}\n")
        for row in rows:
            out.write(" ".join(map(str.rjust, row.split(_CELL_SEP), widths)) + "\n")
        return out.getvalue()


class Study:
    """Builder for a declarative sweep; see the module docstring.

    ``axis`` / ``fix`` / ``metrics`` mutate and return ``self`` for
    chaining.  Compilation (:meth:`tasks`) is pure: the same study
    always yields the same task list, hence the same content hashes.
    """

    def __init__(self, name: str = "study") -> None:
        self.name = str(name)
        self._axes: "dict[str, list]" = {}
        self._fixed: dict = {}
        self._metrics: tuple[str, ...] = ("mean_time", "convergence_rate")
        self._campaign: "CampaignSpec | None" = None  # preset (table1/figure1) mode
        self._compiled: "list[TaskSpec] | None" = None  # tasks() memo

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def axis(self, name: str, values) -> "Study":
        """Sweep ``name`` over ``values`` (order preserved within the axis)."""
        self._check_generic("axis")
        key = self._axis_key(name)
        vals = [self._coerce(name, v) for v in values]
        if not vals:
            raise ValueError(f"axis {name!r} needs at least one value")
        self._axes[key] = vals
        self._compiled = None
        return self

    def fix(self, **kwargs) -> "Study":
        """Pin axes or campaign settings (``scale``/``reps``/``eps``/
        ``base_seed``/``sampling``)."""
        self._check_generic("fix")
        for name, value in kwargs.items():
            if name == "sampling":
                self._fixed[name] = _canonical_sampling(value)
            elif name in SETTING_DEFAULTS:
                self._fixed[name] = type(SETTING_DEFAULTS[name])(value)
            else:
                self._fixed[self._axis_key(name)] = self._coerce(name, value)
        self._compiled = None
        return self

    def adaptive(self, spec: "str | object | None") -> "Study":
        """Switch the study to adaptive (variance-aware) sampling.

        ``spec`` is a :class:`repro.adaptive.SamplingPolicy`, a spec
        string like ``"ci=0.05,conf=0.95,min=5,max=200"``, or
        ``None``/``""`` to return to fixed-count sampling.  Works on
        preset (table1/figure1) and generic studies alike.  Under
        adaptive sampling the ``reps`` setting is superseded by the
        policy's ``max`` (the per-task repetition cap).
        """
        canonical = _canonical_sampling(spec)
        if self._campaign is not None:
            from dataclasses import replace

            self._campaign = replace(self._campaign, sampling=canonical)
        else:
            self._fixed["sampling"] = canonical
        self._compiled = None
        return self

    def metrics(self, *names: str) -> "Study":
        """Select the :class:`~repro.sim.results.RunStatistics` fields reported
        by :meth:`StudyResult.format_table`."""
        known = {f.name for f in fields(RunStatistics)} | {"sem_time"}
        bad = [n for n in names if n not in known]
        if bad:
            raise ValueError(f"unknown metrics {bad}; expected one of: {sorted(known)}")
        if names:
            self._metrics = tuple(names)
        return self

    def _axis_key(self, name: str) -> str:
        key = "alpha" if name == "mtbf" else name
        if key not in AXES:
            raise ValueError(
                f"unknown axis {name!r} (expected one of: {', '.join(AXES)}, mtbf)"
            )
        other = "alpha" if name == "mtbf" else "mtbf"
        if name in ("alpha", "mtbf") and self._declared_rate not in (None, name):
            raise ValueError(f"cannot declare both 'alpha' and '{other}'")
        if name in ("alpha", "mtbf"):
            self._declared_rate = name
        return key

    _declared_rate: "str | None" = None

    @staticmethod
    def _coerce(name: str, value):
        """Normalize axis values to plain Python scalars (numpy scalars
        would poison the repr-based task hash)."""
        if name in ("uid", "s", "d"):
            if isinstance(value, str):  # "auto" intervals
                if name != "uid" and value == "auto":
                    return value
                raise ValueError(f"{name} must be an int" + ("" if name == "uid" else " or 'auto'"))
            # int() would truncate 2.5 to 2 and fail on nan/inf with an
            # unrelated error: refuse what is not a whole number here.
            v = float(value)
            if not (v == v // 1 and (name == "uid" or v >= 1)):
                raise ValueError(
                    f"{name} must be a whole number" + ("" if name == "uid" else " >= 1")
                    + f", got {value!r}"
                )
            return int(value)
        if name == "alpha":
            v = float(value)
            if not 0 <= v < float("inf"):  # 0 is a fault-free point
                raise ValueError(f"alpha must be finite and >= 0, got {v}")
            return v
        if name == "mtbf":
            v = float(value)
            if not v > 0:
                raise ValueError(f"mtbf must be > 0, got {v}")
            return 1.0 / v
        if name == "method":
            return Method.parse(value).value
        if name == "backend":
            from repro.backends import get_backend

            if not isinstance(value, str):
                raise ValueError(
                    "backend axis values must be kernel names "
                    f"(task specs are JSON), got {value!r}"
                )
            get_backend(value)  # raises on an unknown kernel
            return value
        if name == "scheme":
            return Scheme.parse(value).value
        raise AssertionError(name)

    def _check_generic(self, op: str) -> None:
        if self._campaign is not None:
            raise ValueError(f"cannot {op}() on a {self._campaign.kind} preset study")

    # ------------------------------------------------------------------
    # presets: the paper's own evaluation grids
    # ------------------------------------------------------------------
    @classmethod
    def table1(
        cls,
        *,
        scale: int = 16,
        reps: int = 10,
        alpha: float = TABLE1_ALPHA,
        uids: "list[int] | None" = None,
        eps: float = 1e-6,
        base_seed: int = 2015,
        s_span: int = 6,
        methods: "list[str] | None" = None,
        backend: str = "reference",
        sampling: str = "",
    ) -> "Study":
        """The paper's Table-1 grid (interval sweep at fault constant α),
        verbatim the :class:`CampaignSpec` the drivers have always expanded.
        ``sampling`` switches the campaign to adaptive sequential stopping
        (:mod:`repro.adaptive`; ``reps`` is then superseded by the policy
        cap)."""
        study = cls("table1")
        study._campaign = CampaignSpec(
            kind="table1",
            scale=scale,
            reps=reps,
            uids=tuple(uids) if uids is not None else None,
            alpha=alpha,
            eps=eps,
            base_seed=base_seed,
            s_span=s_span,
            methods=tuple(methods) if methods is not None else ("cg",),
            backend=backend,
            sampling=_canonical_sampling(sampling),
        )
        return study

    @classmethod
    def figure1(
        cls,
        *,
        scale: int = 16,
        reps: int = 10,
        mtbf_values: "list[float] | None" = None,
        uids: "list[int] | None" = None,
        eps: float = 1e-6,
        base_seed: int = 2015,
        methods: "list[str] | None" = None,
        backend: str = "reference",
        sampling: str = "",
    ) -> "Study":
        """The paper's Figure-1 grid (scheme comparison across MTBF).
        ``sampling`` switches the campaign to adaptive sequential stopping
        (:mod:`repro.adaptive`)."""
        study = cls("figure1")
        study._campaign = CampaignSpec(
            kind="figure1",
            scale=scale,
            reps=reps,
            uids=tuple(uids) if uids is not None else None,
            mtbf_values=tuple(mtbf_values) if mtbf_values is not None else None,
            eps=eps,
            base_seed=base_seed,
            methods=tuple(methods) if methods is not None else ("cg",),
            backend=backend,
            sampling=_canonical_sampling(sampling),
        )
        return study

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def tasks(self) -> "list[TaskSpec]":
        """Compile the study to its ordered, content-hashable task list.

        Compilation is memoized (builders invalidate on mutation), so
        callers that need the list before running — ``repro study run``
        prints the count first — don't pay the matrix builds and model
        optimization twice.  The returned list is a fresh copy.
        """
        if self._compiled is None:
            self._compiled = self._compile()
        return list(self._compiled)

    def _compile(self) -> "list[TaskSpec]":
        if self._campaign is not None:
            return self._campaign.expand()
        settings = {**SETTING_DEFAULTS, **{k: v for k, v in self._fixed.items()
                                           if k in SETTING_DEFAULTS}}
        sampling = settings["sampling"]
        if sampling:
            from repro.adaptive import SamplingPolicy

            # Adaptive tasks carry the policy cap as their rep count
            # (TaskSpec enforces the equality).
            settings["reps"] = SamplingPolicy.parse(sampling).max_reps
        values = {}
        for ax in AXES:
            if ax in self._axes:
                values[ax] = self._axes[ax]
            elif ax in self._fixed:
                values[ax] = [self._fixed[ax]]
            else:
                values[ax] = [POINT_DEFAULTS[ax]]

        from repro.core.methods import CostModel
        from repro.model.instantiate import resolve_intervals
        from repro.sim.matrices import size_facts

        # resolve_intervals evaluates the costs callable — and hence
        # counts the matrix — only for points that actually need the
        # model; the cache spans the method axis (the optimum depends
        # only on (uid, scheme, alpha, s, d)).
        resolution_cache: dict = {}

        def resolved(uid: int, scheme: Scheme, alpha: float, s_raw, d_raw):
            key = (uid, scheme, alpha, s_raw, d_raw)
            if key not in resolution_cache:
                resolution_cache[key] = resolve_intervals(
                    scheme,
                    alpha,
                    lambda: CostModel.from_matrix(size_facts(uid, settings["scale"])),
                    s=s_raw,
                    d=d_raw,
                )
            return resolution_cache[key]

        tasks: "list[TaskSpec]" = []
        for uid in values["uid"]:
            for method_name in values["method"]:
                method = Method.parse(method_name)
                for backend in values["backend"]:
                    for scheme_name in values["scheme"]:
                        scheme = Scheme.parse(scheme_name)
                        if not method.supports(scheme):
                            continue
                        for alpha in values["alpha"]:
                            for s_raw in values["s"]:
                                for d_raw in values["d"]:
                                    if (
                                        isinstance(d_raw, int)
                                        and d_raw > 1
                                        and scheme is not Scheme.ONLINE_DETECTION
                                    ):
                                        # ABFT schemes verify every iteration;
                                        # skip like any unsupported combination
                                        # rather than aborting the campaign.
                                        continue
                                    s, d, s_model = resolved(uid, scheme, alpha, s_raw, d_raw)
                                    tasks.append(
                                        TaskSpec(
                                            experiment=f"study:{self.name}",
                                            uid=uid,
                                            scale=settings["scale"],
                                            scheme=scheme.value,
                                            alpha=alpha,
                                            s=s,
                                            d=d,
                                            reps=settings["reps"],
                                            base_seed=settings["base_seed"],
                                            eps=settings["eps"],
                                            labels=("study", self.name, uid, "s", s, "d", d),
                                            s_model=s_model if s_raw == "auto" else 0,
                                            method=method.value,
                                            backend=backend,
                                            sampling=sampling,
                                        )
                                    )
        return tasks

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        jobs: "int | None" = 1,
        store: "StoreBackend | str | os.PathLike[str] | None" = None,
        progress: "bool | str" = False,
        reuse_workspace: bool = True,
        trace_dir: "str | os.PathLike[str] | None" = None,
        task_timeout: "float | None" = None,
        retries: int = 0,
        chaos=None,
    ) -> StudyResult:
        """Execute the study through the campaign engine.

        ``jobs`` fans tasks over worker processes (any value is
        bit-identical to serial); ``store`` persists per-task records
        and serves already-completed tasks from them without
        recomputation (this *is* resume — pointing a re-run at the same
        store only executes what is missing).  It accepts a constructed
        backend or a selector URL (:mod:`repro.store`): a bare path is
        the single-file JSONL store, ``sharded:dir`` hash-partitioned
        JSONL shards, ``sqlite:file.db`` a WAL database — records and hence
        aggregates are bit-identical across all of them, and a store
        may be migrated between backends mid-campaign (``repro store
        migrate``) without losing resume.  ``progress`` prints a
        throughput/ETA line to stderr — ``True`` or ``"bar"`` for the
        human status line, ``"json"`` for newline-delimited JSON
        objects schedulers can scrape, ``False``/``"none"`` for
        silence.  ``reuse_workspace`` (default on) runs repetitions
        through per-worker solve workspaces — the zero-copy hot path;
        ``False`` gives every solve a private workspace.  Task hashes
        and records are identical either way, so stores mix freely
        across the switch.

        ``trace_dir`` enables structured tracing (:mod:`repro.obs`):
        every worker appends its solve events to its own
        ``shard-<pid>.jsonl`` under the directory (crash-safe append,
        one JSON object per line, each stamped with the owning task's
        content hash).  Summarize with ``repro trace summarize DIR``.
        Tracing is pure observation — records are bit-identical with it
        on or off.

        ``task_timeout`` / ``retries`` / ``chaos`` are the self-healing
        and fault-injection knobs of
        :func:`repro.campaign.executor.run_campaign` (off by default);
        a task that exhausts its attempts is quarantined rather than
        failing the study — check :attr:`StudyResult.quarantined`.
        """
        from repro.campaign.executor import run_campaign
        from repro.campaign.progress import ProgressReporter

        if progress in (False, None, "none"):
            mode = None
        elif progress in (True, "bar"):
            mode = "bar"
        elif progress == "json":
            mode = "json"
        else:
            raise ValueError(
                f"progress must be a bool, 'bar', 'json' or 'none', got {progress!r}"
            )

        tasks = self.tasks()
        reporter = None
        if mode is not None:
            import sys

            reporter = ProgressReporter(
                len(tasks), stream=sys.stderr, label=self.name, mode=mode
            )
        records = run_campaign(
            tasks,
            jobs=jobs,
            store=store,
            progress=reporter,
            reuse_workspace=reuse_workspace,
            trace_dir=trace_dir,
            task_timeout=task_timeout,
            retries=retries,
            chaos=chaos,
        )
        return StudyResult(tasks, records, metrics=self._metrics)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-serializable spec; :meth:`from_json` inverts it exactly
        (same name, axes, settings — hence the same task hashes)."""
        if self._campaign is not None:
            camp = {f.name: getattr(self._campaign, f.name) for f in fields(CampaignSpec)}
            camp = {
                k: list(v) if isinstance(v, tuple) else v for k, v in camp.items()
            }
            return {"study": self.name, "kind": self._campaign.kind, "campaign": camp}
        return {
            "study": self.name,
            "kind": "axes",
            "axes": {k: list(v) for k, v in self._axes.items()},
            "fixed": dict(self._fixed),
            "metrics": list(self._metrics),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Study":
        """Rebuild a study from :meth:`to_json` output."""
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("study spec must be a JSON object with a 'kind' key")
        kind = data["kind"]
        name = data.get("study", "study")
        if kind in ("table1", "figure1"):
            camp = dict(data["campaign"])
            camp["kind"] = kind
            for key in ("uids", "mtbf_values", "methods"):
                if camp.get(key) is not None:
                    camp[key] = tuple(camp[key])
            study = cls(name)
            study._campaign = CampaignSpec(**camp)
            return study
        if kind != "axes":
            raise ValueError(f"unknown study kind {kind!r} (expected axes/table1/figure1)")
        study = cls(name)
        for ax, vals in data.get("axes", {}).items():
            study.axis(ax, vals)
        if data.get("fixed"):
            study.fix(**data["fixed"])
        if data.get("metrics"):
            study.metrics(*data["metrics"])
        return study

    def save(self, path: "str | os.PathLike[str]") -> None:
        """Write the spec to a JSON file (see ``repro study run``)."""
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "Study":
        """Read a spec written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(json.load(fh))
