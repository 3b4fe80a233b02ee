"""Declarative campaign specifications.

A campaign is a flat list of independent *tasks*, each one the smallest
schedulable unit of the paper's evaluation: run ``reps`` fault-injected
solves of one (method, matrix, scheme, α, s, d) point and aggregate
them.  A
:class:`TaskSpec` carries everything a worker process needs to execute
the point from scratch — matrices are referenced by ``(uid, scale)``
and rebuilt (deterministically, from cache) inside the worker rather
than pickled across the process boundary.

Seeding is the load-bearing invariant: a task's repetitions draw their
RNG from ``spawn_named(base_seed, scheme, alpha, *labels, rep)``,
exactly the tuple the serial drivers in :mod:`repro.sim` have always
used.  Because the seed depends only on the task's *identity* and never
on execution order, a campaign sliced across N worker processes is
bit-identical to the same campaign run serially.

Tasks are content-hashable (:meth:`TaskSpec.task_hash`) so a result
store can recognize completed work across process restarts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

__all__ = [
    "TaskSpec",
    "CampaignSpec",
    "default_s_grid",
    "TABLE1_ALPHA",
    "DEFAULT_MTBF_VALUES",
]

#: Paper's Table-1 fault constant: λ = 1/(16 M) per word → α = 1/16.
TABLE1_ALPHA: float = 1.0 / 16.0

#: Figure 1's default x-axis ``1/α``: the paper spans roughly 10²–10⁴,
#: plus the Table-1 point 16 for continuity with the high-rate regime.
DEFAULT_MTBF_VALUES: tuple[float, ...] = (16.0, 10**2, 10**2.5, 10**3, 10**3.5, 10**4)


def default_s_grid(s_center: int, *, span: int = 6, s_max: int = 60) -> list[int]:
    """Interval sweep grid around the model prediction.

    Covers ``[max(1, s̃ − span), min(s_max, s̃ + span)]`` plus a few
    coarse points so a badly wrong model prediction still brackets the
    empirical optimum.
    """
    lo = max(1, s_center - span)
    hi = min(s_max, s_center + span)
    grid = set(range(lo, hi + 1))
    grid.update({1, 2, 4, 8, 16, 24, 32})
    return sorted(v for v in grid if v <= s_max)


@lru_cache(maxsize=64)
def _check_names(
    method: str, scheme: str, backend: str, sampling: str, reps: int
) -> None:
    """Validate the registry-backed part of a task's identity.

    A grid of thousands of tasks names a handful of distinct
    combinations, so the parse runs once per combination, not per task
    (a failing one raises and is never cached).
    """
    from repro.backends import get_backend
    from repro.core.methods import Method, Scheme

    Method.parse(method)  # raises on an unknown solver
    Scheme.parse(scheme)  # raises on an unknown scheme
    get_backend(backend)  # raises on an unknown backend
    if sampling:
        from repro.adaptive import SamplingPolicy

        policy = SamplingPolicy.parse(sampling)
        if policy.spec() != sampling:
            # Two spellings of one policy must never hash apart.
            raise ValueError(
                f"sampling spec {sampling!r} is not canonical; "
                f"use {policy.spec()!r}"
            )
        if reps != policy.max_reps:
            raise ValueError(
                f"adaptive task reps ({reps}) must equal the "
                f"policy rep cap max={policy.max_reps}"
            )


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: ``reps`` runs of a single parameter point.

    Attributes
    ----------
    experiment:
        Campaign family the task belongs to (``"table1"`` /
        ``"figure1"`` / free-form for custom campaigns).
    uid, scale:
        Suite-matrix id and size divisor; the worker rebuilds the
        matrix via :func:`repro.sim.matrices.get_matrix`.
    scheme:
        :class:`repro.core.methods.Scheme` value string.
    alpha:
        Fault-rate constant (strikes per iteration), finite and >= 0.
    s, d:
        Checkpoint and verification intervals under test, whole
        numbers >= 1.
    reps, base_seed, eps:
        Forwarded to :func:`repro.sim.engine.repeat_run`.
    labels:
        Seed-derivation labels, verbatim the tuple the serial drivers
        pass to ``repeat_run`` — part of the task's identity.
    s_model:
        Model-predicted interval for this task's (matrix, scheme)
        group; carried so aggregation can report ``s̃`` without
        re-deriving the model (0 when not applicable).
    method:
        :class:`repro.core.methods.Method` value string — the solver
        axis of the grid.  Adding this field changed the task-hash
        schema (stores written before the solver axis existed are not
        recognized and their tasks recompute).
    backend:
        Kernel name, ``"reference"`` or ``"scipy"``
        (:mod:`repro.backends`) — the kernel axis of the grid.  Adding
        this field bumped the task-hash schema again (pre-backend
        stores recompute); the kernel is part of the task's *identity*
        but deliberately not of its seed derivation, so the same point
        on both kernels faces the same fault stream.
    sampling:
        Canonical :class:`repro.adaptive.SamplingPolicy` spec string,
        or ``""`` for fixed-count sampling (the default).  When set,
        the task runs adaptively — repetitions stop once the CI
        half-width is below target — and ``reps`` must equal the
        policy's ``max_reps`` (the rep cap, so ``reps - stats.reps`` is
        the savings).  Adding this field bumped the task-hash schema a
        third time (pre-adaptive stores recompute).  Like ``backend``,
        the policy is part of the task's *identity* but deliberately
        not of its seed derivation: adaptive and fixed-count runs share
        fault streams prefix-wise (docs/DESIGN.md §11).
    """

    experiment: str
    uid: int
    scale: int
    scheme: str
    alpha: float
    s: int
    d: int = 1
    reps: int = 10
    base_seed: int = 2015
    eps: float = 1e-6
    labels: tuple = ()
    s_model: int = 0
    method: str = "cg"
    backend: str = "reference"
    sampling: str = ""

    def __post_init__(self) -> None:
        s, d = self.s, self.d
        # Compiling imports no validation module unless it must fail;
        # a whole ``float`` interval such as ``4.0`` passes, and hashes
        # as it is.
        if not (type(s) is int and s >= 1 and type(d) is int and d >= 1
                and 0 <= self.alpha < math.inf):
            from repro.util.validate import check_fault_point

            check_fault_point(self.alpha, s=s, d=d)
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            from repro.util.validate import check_positive

            check_positive("eps", self.eps)
            raise ValueError(f"eps must be finite, got {self.eps!r}")
        _check_names(
            self.method, self.scheme, self.backend, self.sampling, self.reps
        )

    #: Memo of :meth:`task_hash`.  Deliberately not a dataclass field:
    #: equality, ``repr``, ``to_json`` and ``asdict`` never see it,
    #: ``dataclasses.replace`` builds a fresh (unmemoised) instance,
    #: while ``pickle`` and ``copy.copy`` carry it along with the
    #: instance ``__dict__`` — a pool worker does not re-hash the tasks
    #: its parent already hashed.
    _hash = None

    def task_hash(self) -> str:
        """Content hash identifying this task across processes and runs.

        Built from the ``repr`` of the full field tuple — ints, strings
        and floats all round-trip exactly through ``repr``, so the hash
        is stable across interpreter sessions (no reliance on Python's
        randomized ``hash()``).  Computed once per instance (the
        instance is frozen, so the digest cannot go stale).
        """
        digest = self._hash
        if digest is None:
            digest = hashlib.sha256(repr(_field_values(self)).encode()).hexdigest()
            object.__setattr__(self, "_hash", digest)
        return digest

    def to_json(self) -> dict:
        """JSON-serializable view (tuples become lists)."""
        out = dict(zip(_FIELD_NAMES, _field_values(self)))
        out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TaskSpec":
        """Invert :meth:`to_json`; the round trip preserves the task hash
        (labels come back as the original tuple, floats exactly)."""
        kwargs = dict(data)
        kwargs["labels"] = tuple(kwargs.get("labels", ()))
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown TaskSpec fields: {sorted(unknown)}")
        return cls(**kwargs)


#: TaskSpec's field names in declaration order, and the getter of the
#: matching value tuple — the hash payload and ``to_json`` without a
#: ``dataclasses.fields()`` walk per call.
_FIELD_NAMES = tuple(f.name for f in fields(TaskSpec))
_field_values = attrgetter(*_FIELD_NAMES)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative parameter grid for one of the paper's experiments.

    ``expand()`` flattens the grid into the same (matrix, scheme, α,
    interval) points, in the same order, that the serial drivers
    iterate, so aggregation reproduces their output exactly.

    Attributes
    ----------
    kind:
        ``"table1"`` (interval sweep at the paper's fault constant) or
        ``"figure1"`` (scheme comparison across MTBF values).
    scale, reps, uids, eps, base_seed:
        As in :meth:`repro.api.study.Study.table1` /
        :meth:`~repro.api.study.Study.figure1`.
    alpha:
        Fault constant for Table-1 campaigns.
    mtbf_values:
        X-axis points ``1/α`` for Figure-1 campaigns (``None`` →
        :data:`DEFAULT_MTBF_VALUES`).
    s_span:
        Table-1 sweep half-width around the model prediction.
    model_s_max:
        Search ceiling for the Eq.-6 integer optimum (``None`` →
        :data:`repro.model.instantiate.MODEL_S_MAX`);
        widen for large-λ campaigns whose optimum lies beyond it.
    methods:
        Solver axis of the grid (:class:`repro.core.methods.Method`
        value strings).  Combinations a solver does not support —
        ONLINE-DETECTION under anything but CG — are silently skipped
        during expansion, so ``methods=("cg", "bicgstab", "pcg")`` on a
        figure-1 campaign yields 3+2+2 scheme series per matrix.
    backend:
        Kernel backend every task of the campaign runs on
        (:mod:`repro.backends`; default ``"reference"``, the
        bit-identity oracle the golden fixtures were recorded on).  A
        single value, not an axis: the presets reproduce the paper's
        artifacts on one kernel — sweep backends against each other
        with ``Study().axis("backend", ...)``.
    sampling:
        Adaptive sampling policy spec (``repro.adaptive``) applied to
        every task of the campaign; ``""`` (default) keeps fixed-count
        sampling.  Under adaptive sampling ``reps`` is ignored — the
        policy's ``max`` is the per-task rep cap.
    """

    kind: str
    scale: int = 16
    reps: int = 10
    uids: "tuple[int, ...] | None" = None
    alpha: float = TABLE1_ALPHA
    mtbf_values: "tuple[float, ...] | None" = None
    eps: float = 1e-6
    base_seed: int = 2015
    s_span: int = 6
    model_s_max: "int | None" = None
    methods: "tuple[str, ...]" = ("cg",)
    backend: str = "reference"
    sampling: str = ""

    def __post_init__(self) -> None:
        from repro.backends import get_backend
        from repro.core.methods import Method

        if self.kind not in ("table1", "figure1"):
            raise ValueError(f"unknown campaign kind: {self.kind!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.s_span < 0:
            raise ValueError(f"s_span must be >= 0, got {self.s_span}")
        if not self.methods:
            raise ValueError("methods must name at least one solver")
        for m in self.methods:
            Method.parse(m)  # raises on an unknown solver
        get_backend(self.backend)  # raises on an unknown backend
        if self.mtbf_values is not None and not all(
            0 < m < math.inf for m in self.mtbf_values
        ):
            raise ValueError(
                f"mtbf_values must be finite and > 0, got {list(self.mtbf_values)}"
            )
        if self.sampling:
            from repro.adaptive import SamplingPolicy

            # Canonicalize so every spelling of one policy expands to
            # identically-hashed tasks (raises on a bad spec).
            canonical = SamplingPolicy.parse(self.sampling).spec()
            object.__setattr__(self, "sampling", canonical)

    def _task_reps(self) -> int:
        """Per-task rep count: the policy cap under adaptive sampling."""
        if self.sampling:
            from repro.adaptive import SamplingPolicy

            return SamplingPolicy.parse(self.sampling).max_reps
        return self.reps

    def expand(self) -> "list[TaskSpec]":
        """Flatten the grid into an ordered list of tasks."""
        if self.kind == "table1":
            return self._expand_table1()
        return self._expand_figure1()

    # The imports below are deliberately local: expanding a grid runs the
    # model on each matrix's size facts, which a process that only reads
    # or hashes tasks never pays for.

    def _expand_table1(self) -> "list[TaskSpec]":
        from repro.core.methods import CostModel, Method, Scheme
        from repro.model.instantiate import MODEL_S_MAX, model_interval_for
        from repro.sim.matrices import size_facts, suite_specs

        s_max = MODEL_S_MAX if self.model_s_max is None else self.model_s_max
        reps = self._task_reps()
        tasks: list[TaskSpec] = []
        for spec in suite_specs(list(self.uids) if self.uids is not None else None):
            costs = CostModel.from_matrix(size_facts(spec.uid, self.scale))
            # The Eq.-6 optimization depends only on (matrix, scheme),
            # so hoist it out of the method loop.
            sweeps: "dict[Scheme, tuple[int, list[int]]]" = {}
            for scheme in (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION):
                s_model, _ = model_interval_for(scheme, self.alpha, costs, s_max=s_max)
                grid = default_s_grid(s_model, span=self.s_span)
                if s_model not in grid:
                    # Fail before any compute is spent: aggregation needs
                    # Et(s̃), so a sweep that clips the model interval out
                    # (its ceiling is default_s_grid's s_max) could only
                    # error after the whole campaign had run.
                    raise ValueError(
                        f"matrix {spec.uid} / {scheme.value}: model interval "
                        f"s~={s_model} falls outside the sweep grid "
                        f"{grid}; lower alpha's MTBF or widen default_s_grid"
                    )
                sweeps[scheme] = (s_model, grid)
            for method in (Method.parse(m) for m in self.methods):
                for scheme, (s_model, grid) in sweeps.items():
                    for s in grid:
                        tasks.append(
                            TaskSpec(
                                experiment="table1",
                                uid=spec.uid,
                                scale=self.scale,
                                scheme=scheme.value,
                                alpha=self.alpha,
                                s=s,
                                d=1,
                                reps=reps,
                                base_seed=self.base_seed,
                                eps=self.eps,
                                labels=("table1", spec.uid, "s", s),
                                s_model=s_model,
                                method=method.value,
                                backend=self.backend,
                                sampling=self.sampling,
                            )
                        )
        return tasks

    def _expand_figure1(self) -> "list[TaskSpec]":
        from repro.core.methods import CostModel, Method
        from repro.model.instantiate import MODEL_S_MAX, model_interval_for
        from repro.sim.matrices import size_facts, suite_specs

        s_max = MODEL_S_MAX if self.model_s_max is None else self.model_s_max
        mtbfs = DEFAULT_MTBF_VALUES if self.mtbf_values is None else self.mtbf_values
        reps = self._task_reps()
        tasks: list[TaskSpec] = []
        for spec in suite_specs(list(self.uids) if self.uids is not None else None):
            costs = CostModel.from_matrix(size_facts(spec.uid, self.scale))
            # The interval optimization depends only on (matrix, mtbf,
            # scheme); cache it so extra methods don't re-run it.
            intervals: "dict[tuple[float, object], tuple[int, int]]" = {}
            for method in (Method.parse(m) for m in self.methods):
                for mtbf in mtbfs:
                    alpha = 1.0 / mtbf
                    # supported_schemes keeps the paper's series order
                    # (online, abft-detection, abft-correction) and drops
                    # ONLINE-DETECTION for the non-CG solvers.
                    for scheme in method.supported_schemes:
                        if (mtbf, scheme) not in intervals:
                            intervals[mtbf, scheme] = model_interval_for(
                                scheme, alpha, costs, s_max=s_max
                            )
                        s, d = intervals[mtbf, scheme]
                        tasks.append(
                            TaskSpec(
                                experiment="figure1",
                                uid=spec.uid,
                                scale=self.scale,
                                scheme=scheme.value,
                                alpha=alpha,
                                s=s,
                                d=d,
                                reps=reps,
                                base_seed=self.base_seed,
                                eps=self.eps,
                                labels=("figure1", spec.uid, mtbf),
                                s_model=s,
                                method=method.value,
                                backend=self.backend,
                                sampling=self.sampling,
                            )
                        )
        return tasks
