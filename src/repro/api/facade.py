"""The ``repro.solve()`` facade: one call from problem to report.

The resilience engine, its cost models, the Section-4 interval
optimization and the fault injector are all composable pieces — this
module wires them together behind a single function so that protecting
one linear solve takes three lines::

    from repro import solve, FaultSpec
    report = solve(a, b, method="pcg", scheme="abft-correction",
                   faults=FaultSpec(alpha=0.05, seed=42))
    print(report.summary())

``solve`` validates the matrix, derives a flop-count cost model,
resolves ``"auto"`` checkpoint/verification intervals through the
paper's performance model, runs the requested recurrence plugin under
the requested protection scheme, and returns a :class:`SolveReport`
carrying the solution, the convergence history, the recovery ledger
(:class:`~repro.resilience.accounting.RecoveryCounters` /
:class:`~repro.resilience.accounting.TimeBreakdown`) and the
model-recommended interval — with ``to_dict()`` / ``to_json()`` for
downstream tooling.

Determinism contract: for a given ``(matrix, b, method, scheme,
FaultSpec, CheckpointSpec, costs, eps)`` the run is bit-identical to
calling the underlying driver directly (locked by
``tests/test_api_facade.py`` against the golden FT-CG trajectories).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.core.methods import CostModel, Method, Scheme, SchemeConfig
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import validate_structure

__all__ = ["FaultSpec", "CheckpointSpec", "SolveReport", "solve"]

#: Tracer event kinds that make up :attr:`SolveReport.events`, the
#: solve's recovery timeline.
REPORT_EVENT_KINDS = frozenset(
    {
        "checkpoint",
        "rollback",
        "refresh-rollback",
        "abft-correction",
        "tmr-detection",
        "tmr-correction",
        "breakdown",
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """Silent-error injection settings for one solve.

    Attributes
    ----------
    alpha:
        Fault-rate constant: strikes per iteration ~ ``Poisson(α)``
        (``λ = α/M`` per word, the paper's normalization).  Zero
        disables injection.
    seed:
        Seed or generator for the fault process; ``None`` draws a fresh
        nondeterministic stream.
    """

    alpha: float = 0.0
    seed: "int | np.random.Generator | None" = None

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    @classmethod
    def coerce(cls, value: "FaultSpec | float | None") -> "FaultSpec":
        """``None`` → no faults; a bare number → ``FaultSpec(alpha=number)``."""
        if value is None:
            return cls()
        if isinstance(value, FaultSpec):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(alpha=float(value))
        raise TypeError(f"faults must be a FaultSpec or a number, got {value!r}")


@dataclass(frozen=True)
class CheckpointSpec:
    """Checkpoint / verification cadence for one solve.

    Attributes
    ----------
    interval:
        The model's ``s`` — verified chunks per checkpoint frame.  An
        integer pins it; ``None`` or ``"auto"`` asks the Section-4
        model for the optimal interval at the run's fault rate (falling
        back to 10 when injection is off and the model is moot).
    verification_interval:
        The ``d`` of ONLINE-DETECTION — iterations per verified chunk.
        ``None``/``"auto"`` resolves to Chen's closed-form value for
        ONLINE-DETECTION and to 1 for the ABFT schemes (which verify
        every iteration).
    """

    interval: "int | str | None" = None
    verification_interval: "int | str | None" = None

    #: ``s`` used when injection is off and the model has nothing to optimize.
    DEFAULT_INTERVAL = 10

    def __post_init__(self) -> None:
        for name in ("interval", "verification_interval"):
            v = getattr(self, name)
            if v is None or (isinstance(v, str) and v == "auto"):
                continue
            if isinstance(v, int) and not isinstance(v, bool) and v >= 1:
                continue
            raise ValueError(f"{name} must be a positive int, None or 'auto', got {v!r}")

    @classmethod
    def coerce(cls, value: "CheckpointSpec | int | None") -> "CheckpointSpec":
        """``None`` → all-auto; a bare int → ``CheckpointSpec(interval=int)``."""
        if value is None:
            return cls()
        if isinstance(value, CheckpointSpec):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(interval=value)
        raise TypeError(f"checkpoint must be a CheckpointSpec or an int, got {value!r}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything one protected solve produced.

    Thin, JSON-friendly view over the engine's
    :class:`~repro.resilience.accounting.SolveResult`, augmented with
    the resolved configuration and the model's recommendation.

    ``eq=False``: the ndarray field makes a generated ``__eq__``
    raise, so reports compare (and hash) by identity — compare runs
    via :attr:`solution_sha256` / :meth:`to_dict` instead.
    """

    x: np.ndarray  #: solution vector
    converged: bool
    iterations: int  #: logical solver iteration reached
    iterations_executed: int  #: total iterations including rolled-back work
    time_units: float  #: simulated execution time (units of ``Titer``)
    wall_seconds: float
    residual_norm: float  #: true residual ``‖b − Ax‖`` (clean matrix)
    threshold: float
    counters: Any  #: :class:`~repro.resilience.accounting.RecoveryCounters`
    breakdown: Any  #: :class:`~repro.resilience.accounting.TimeBreakdown`
    method: str
    scheme: str
    backend: str  #: kernel the solve ran on (repro.backends)
    alpha: float
    n: int
    nnz: int
    checkpoint_interval: int  #: the ``s`` actually used
    verification_interval: int  #: the ``d`` actually used
    recommended_interval: "int | None"  #: model-optimal ``s̃`` (None when α = 0)
    history: "list[dict]" = field(default_factory=list)
    #: convergence history: one entry per executed iteration with the
    #: solver's believed residual norm and the simulated clock.
    events: "list[dict]" = field(default_factory=list)
    #: recovery timeline: the solve's tracer events of the
    #: :data:`REPORT_EVENT_KINDS`, each ``{"kind", "iteration", **fields}``.

    @property
    def solution_sha256(self) -> str:
        """Content hash of the solution vector's raw bytes."""
        return hashlib.sha256(np.ascontiguousarray(self.x).tobytes()).hexdigest()

    def to_dict(self, *, solution: bool = False) -> dict:
        """JSON-serializable view; ``solution=True`` inlines ``x`` as a list
        (the SHA-256 of its bytes is always included)."""
        out = {
            "converged": self.converged,
            "iterations": self.iterations,
            "iterations_executed": self.iterations_executed,
            "time_units": self.time_units,
            "wall_seconds": self.wall_seconds,
            "residual_norm": self.residual_norm,
            "threshold": self.threshold,
            "method": self.method,
            "scheme": self.scheme,
            "backend": self.backend,
            "alpha": self.alpha,
            "n": self.n,
            "nnz": self.nnz,
            "checkpoint_interval": self.checkpoint_interval,
            "verification_interval": self.verification_interval,
            "recommended_interval": self.recommended_interval,
            "counters": asdict(self.counters),
            "breakdown": asdict(self.breakdown),
            "history": self.history,
            "events": self.events,
            "solution_sha256": self.solution_sha256,
        }
        if solution:
            out["x"] = self.x.tolist()
        return out

    def to_json(self, *, solution: bool = False, indent: "int | None" = None) -> str:
        """``to_dict`` rendered as a JSON string."""
        return json.dumps(self.to_dict(solution=solution), indent=indent)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        c, b = self.counters, self.breakdown
        status = "converged" if self.converged else "DID NOT CONVERGE"
        kernel = "" if self.backend == "reference" else f" [{self.backend} kernels]"
        lines = [
            f"{self.method} under {self.scheme}{kernel} on n={self.n} "
            f"(nnz={self.nnz}): {status}",
            f"  iterations       {self.iterations} logical / {self.iterations_executed} executed",
            f"  simulated time   {self.time_units:.2f} Titer units"
            f"  (useful {b.useful_work:.2f}, wasted {b.wasted_work:.2f},"
            f" verif {b.verification:.2f}, ckpt {b.checkpoint:.2f}, rec {b.recovery:.2f})",
            f"  residual         {self.residual_norm:.3e} (threshold {self.threshold:.3e})",
            f"  faults           {c.faults_injected} injected, {c.total_corrections} corrected,"
            f" {c.rollbacks} rollbacks, {c.checkpoints} checkpoints",
            f"  intervals        s={self.checkpoint_interval}, d={self.verification_interval}"
            + (
                f" (model recommends s~={self.recommended_interval})"
                if self.recommended_interval is not None
                else ""
            ),
        ]
        return "\n".join(lines)


def _as_matrix(a: object) -> CSRMatrix:
    """Coerce a CSRMatrix / scipy sparse matrix / dense 2-D array."""
    if isinstance(a, CSRMatrix):
        return a
    if hasattr(a, "tocsr"):  # any scipy.sparse format
        return CSRMatrix.from_scipy(a.tocsr())  # type: ignore[union-attr]
    arr = np.asarray(a)
    if arr.ndim == 2:
        return CSRMatrix.from_dense(arr)
    raise TypeError(
        "matrix must be a repro CSRMatrix, a scipy.sparse matrix or a dense 2-D array; "
        f"got {type(a).__name__}"
    )


def solve(
    a: object,
    b: np.ndarray,
    *,
    method: "Method | str" = "cg",
    scheme: "Scheme | str" = "abft-correction",
    faults: "FaultSpec | float | None" = None,
    checkpoint: "CheckpointSpec | int | None" = None,
    costs: "CostModel | None" = None,
    eps: float = 1e-8,
    maxiter: "int | None" = None,
    x0: "np.ndarray | None" = None,
    validate: bool = True,
    record_history: bool = True,
    reuse_workspace: "bool | object" = False,
    backend: str = "reference",
    trace: "object | None" = None,
) -> SolveReport:
    """Solve ``A x = b`` with a fault-tolerant iterative method.

    Parameters
    ----------
    a:
        System matrix — a :class:`~repro.sparse.csr.CSRMatrix`, any
        ``scipy.sparse`` matrix, or a dense 2-D array.
    b:
        Right-hand side.
    method:
        Solver: ``"cg"``, ``"bicgstab"`` or ``"pcg"`` (Jacobi-PCG) — a
        :class:`~repro.core.methods.Method` or its value string.
    scheme:
        Protection scheme: ``"online-detection"``, ``"abft-detection"``
        or ``"abft-correction"``.  Must be supported by ``method``
        (Chen's ONLINE-DETECTION argues from the plain CG recurrence).
    faults:
        :class:`FaultSpec`, a bare ``alpha`` number, or ``None`` (no
        injection).
    checkpoint:
        :class:`CheckpointSpec`, a bare interval int, or ``None``
        (model-optimal interval).
    costs:
        Normalized :class:`~repro.core.methods.CostModel`; ``None``
        derives one from the matrix's flop counts
        (:meth:`CostModel.from_matrix`).
    eps, maxiter, x0:
        Stopping tolerance, executed-iteration cap (default ``20 n``)
        and initial guess, as in the underlying drivers.
    validate:
        Check CSR structural invariants and shape compatibility before
        running (cheap; disable only in tight loops on trusted input).
    record_history:
        Record the per-iteration convergence history (believed residual
        norm vs simulated time).  Costs one vector norm per iteration
        of wall time; never affects the trajectory.
    reuse_workspace:
        Zero-copy hot path for repeated solves of the same matrix
        object: ``True`` uses the process-wide
        :func:`repro.perf.default_workspace` (live-matrix strike-undo
        reuse, cached ABFT checksums, preallocated buffers, the
        clean-trajectory memo), or pass your own
        :class:`repro.perf.SolveWorkspace`.  Off (the default), the
        solve runs on a private workspace of its own, with no memo and
        freshly computed checksums; the result is bit-identical on
        either kernel.  Leave off for one-shot solves or when calling
        from multiple threads, and see :func:`repro.perf.clear_caches`
        if you mutate a previously solved matrix in place.
    backend:
        The kernel of every SpMxV of the solve (:mod:`repro.backends`):
        ``"reference"`` (default), the bit-identity oracle, or
        ``"scipy"``, which computes structure-clean products with
        SciPy's compiled kernel (numerically equivalent, typically
        2–4× faster on large matrices) while every struck product
        stays on the wild-read kernel, so fault detection semantics
        are unchanged.
    trace:
        Optional structured-event sink: a :class:`repro.obs.Tracer`
        instance, or a path (``str``/``os.PathLike``) that opens a
        :class:`repro.obs.JsonlTracer` writing one event per line
        (closed before returning).  Receives the solve's full event
        stream — lifecycle, per-iteration steps, strikes, recoveries
        (see ``docs/DESIGN.md`` §8).  ``None`` /
        :class:`repro.obs.NullTracer` disable tracing at zero cost;
        tracing is pure observation and never changes the trajectory.

    Returns
    -------
    SolveReport
    """
    import os as _os

    from repro.backends import get_backend
    from repro.obs.tracer import CallbackTracer, JsonlTracer, MultiTracer, resolve_tracer
    from repro.perf import SolveWorkspace, default_workspace
    from repro.resilience.registry import run_ft_method

    if isinstance(reuse_workspace, SolveWorkspace):
        workspace = reuse_workspace
    elif reuse_workspace is True:
        workspace = default_workspace()
    elif reuse_workspace is False or reuse_workspace is None:
        workspace = None
    else:
        # A truthy stand-in must not silently become the *shared*
        # process-wide workspace (the exact unsafe sharing the
        # docstring warns multi-threaded callers about).
        raise TypeError(
            "reuse_workspace must be a bool or a repro.perf.SolveWorkspace, "
            f"got {reuse_workspace!r}"
        )

    get_backend(backend)  # raises on an unknown name

    mat = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    if validate:
        validate_structure(mat)
        if mat.nrows != mat.ncols:
            raise ValueError(f"matrix must be square, got {mat.nrows}x{mat.ncols}")
        if b.shape != (mat.nrows,):
            raise ValueError(f"b must have shape ({mat.nrows},), got {b.shape}")

    meth = Method.parse(method)
    sch = Scheme.parse(scheme)
    if not meth.supports(sch):
        supported = ", ".join(s.value for s in meth.supported_schemes)
        raise ValueError(
            f"method {meth.value!r} does not support scheme {sch.value!r} "
            f"(supported: {supported})"
        )

    fa = FaultSpec.coerce(faults)
    cp = CheckpointSpec.coerce(checkpoint)
    costs_ = CostModel.from_matrix(mat) if costs is None else costs

    from repro.model.instantiate import resolve_intervals

    s, d, rec_s = resolve_intervals(
        sch,
        fa.alpha,
        costs_,
        s=cp.interval if isinstance(cp.interval, int) else "auto",
        d=cp.verification_interval if isinstance(cp.verification_interval, int) else "auto",
        default_s=CheckpointSpec.DEFAULT_INTERVAL,
        recommend=True,  # the report shows s̃ even when the user pinned s
    )
    config = SchemeConfig(sch, checkpoint_interval=s, verification_interval=d, costs=costs_)

    # User-facing trace sink: a Tracer passes through; a path opens a
    # JSONL sink we own (and therefore close before returning).
    own_trace = False
    if trace is None or isinstance(trace, (str, _os.PathLike)):
        tr = JsonlTracer(trace) if trace is not None else None
        own_trace = tr is not None
    else:
        tr = resolve_tracer(trace)

    history: "list[dict]" = []
    events: "list[dict]" = []

    def _record(ctx) -> None:
        history.append(
            {
                "iteration": int(ctx.plugin.iteration),
                "time_units": float(ctx.time_units),
                "residual_norm": float(np.linalg.norm(ctx.plugin.vectors["r"])),
            }
        )

    def _event(event: dict) -> None:
        if event["kind"] in REPORT_EVENT_KINDS:
            fields = {k: v for k, v in event.items() if k not in ("v", "kind", "iter")}
            events.append({"kind": event["kind"], "iteration": event["iter"], **fields})

    report_tr = CallbackTracer(on_iteration=_record if record_history else None, on_event=_event)
    tr = report_tr if tr is None else MultiTracer([tr, report_tr])

    try:
        res = run_ft_method(
            meth,
            mat,
            b,
            config,
            alpha=fa.alpha,
            x0=x0,
            eps=eps,
            maxiter=maxiter,
            rng=fa.seed,
            tracer=tr,
            workspace=workspace,
            backend=backend,
        )
    finally:
        if own_trace:
            # Close only the sink we created; `tr` may wrap it in a
            # MultiTracer whose other children belong to the caller.
            trace_sink = tr.tracers[0] if isinstance(tr, MultiTracer) else tr
            trace_sink.close()

    return SolveReport(
        x=res.x,
        converged=res.converged,
        iterations=res.iterations,
        iterations_executed=res.iterations_executed,
        time_units=res.time_units,
        wall_seconds=res.wall_seconds,
        residual_norm=res.residual_norm,
        threshold=res.threshold,
        counters=res.counters,
        breakdown=res.breakdown,
        method=meth.value,
        scheme=sch.value,
        backend=backend,
        alpha=fa.alpha,
        n=mat.nrows,
        nnz=mat.nnz,
        checkpoint_interval=s,
        verification_interval=d,
        recommended_interval=rec_s,
        history=history,
        events=events,
    )
