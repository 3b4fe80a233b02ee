"""Repeated fault-injected runs and their aggregation.

The experiment drivers need, for many (method, matrix, scheme, α,
interval) tuples, the mean execution time over ``reps`` independent
runs.  Each repetition derives its RNG deterministically from
``(base_seed, [method,] scheme, α, labels…, rep)`` so any single point
of any table can be re-run in isolation and reproduce exactly.  For
``method="cg"`` the derivation tuple omits the method name — verbatim
what the drivers used before the solver axis existed — so historical
campaigns stay bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.adaptive import SamplingPolicy, Welford, ci_bounds
from repro.sparse.csr import CSRMatrix
from repro.core.methods import Method, SchemeConfig
from repro.obs.metrics import METRICS
from repro.obs.tracer import resolve_tracer
from repro.sim.results import DEFAULT_CONFIDENCE, PER_REP_KEYS, RunStatistics
from repro.util.rng import spawn_named

# RunStatistics and PER_REP_KEYS live in repro.sim.results, so
# aggregation and reporting read records without importing this module,
# which imports NumPy.

__all__ = [
    "RunStatistics",
    "repeat_run",
    "make_rhs",
    "PER_REP_KEYS",
]


@lru_cache(maxsize=4)
def _rhs(n: int, seed: int) -> np.ndarray:
    """Read-only memo behind :func:`make_rhs`: every task on one matrix
    asks for the same vector, and a campaign walks its matrices in
    order, so a few entries are enough."""
    rhs = np.random.default_rng(seed).standard_normal(n)
    rhs.setflags(write=False)
    return rhs


def make_rhs(a: CSRMatrix, seed: int = 1234) -> np.ndarray:
    """Deterministic generic right-hand side for experiment runs.

    A fixed random vector, *not* ``A·1``: several generators make the
    all-ones vector an exact eigenvector, which would let CG converge in
    one step and void the experiment.  Each call returns a fresh
    writable array.
    """
    return _rhs(a.nrows, seed).copy()


@lru_cache(maxsize=None)
def _registry():
    """:mod:`repro.resilience.registry` (the whole solve stack), imported
    by the first repetition: a ``--jobs`` dispatcher imports this module
    for its forked workers but runs no solve, and so loads no solver."""
    import repro.resilience.registry

    return repro.resilience.registry


@lru_cache(maxsize=None)
def _fixed_policy(reps: int) -> SamplingPolicy:
    """The policy of a fixed ``reps``-count loop, one per rep count (it
    is frozen, so every task with that count shares it)."""
    return SamplingPolicy(min_reps=reps, max_reps=reps, confidence=DEFAULT_CONFIDENCE)


def _copy_payload(prior: dict) -> dict:
    """Validated copy of a prior payload (e.g. a store partial record)."""
    payload = {}
    lengths = set()
    for key in PER_REP_KEYS:
        if key not in prior:
            raise ValueError(f"per-rep payload missing key {key!r}")
        payload[key] = list(prior[key])
        lengths.add(len(payload[key]))
    if len(lengths) > 1:
        raise ValueError(f"per-rep payload lists have unequal lengths {lengths}")
    return payload


def _aggregate(payload: dict, confidence: float) -> RunStatistics:
    """Fold a per-rep payload into RunStatistics.

    This is the single aggregation path for both fixed-count and
    adaptive runs: an adaptive run that stopped at k reps aggregates
    exactly like a fixed ``reps=k`` run (same reductions in the same
    order), so the two produce identical statistics by construction.

    The six means are one pairwise float64 row reduction divided by
    ``reps`` — bit for bit what ``np.mean`` returns for each list
    (ints and bools convert exactly; ``tests/test_sim_engine.py`` keeps
    the per-list form as the reference).  A single repetition folds in
    plain Python: NumPy's row sum of one element is ``0.0 + x`` (so
    ``-0.0`` sums to ``0.0``) and its min and max are ``x`` itself.
    Two or more stay on NumPy, whose min/max pick among equal zeros
    and NaN payloads by rules of their own.
    """
    reps = len(payload["times"])
    if reps == 1:
        t0 = float(payload["times"][0])
        means = {k: 0.0 + float(payload[k][0]) for k in PER_REP_KEYS}
        return RunStatistics(
            mean_time=means["times"],
            std_time=0.0,
            min_time=t0,
            max_time=t0,
            mean_iterations=means["iterations"],
            mean_rollbacks=means["rollbacks"],
            mean_corrections=means["corrections"],
            mean_faults=means["faults"],
            convergence_rate=means["converged"],
            reps=1,
            confidence=confidence,
        )
    rows = np.array([payload[k] for k in PER_REP_KEYS], dtype=np.float64)
    means = dict(zip(PER_REP_KEYS, (rows.sum(axis=1) / reps).tolist()))
    t = rows[0]
    mean = means["times"]
    std = float(t.std(ddof=1))
    ci = ci_bounds(mean, std, reps, confidence)
    return RunStatistics(
        mean_time=mean,
        std_time=std,
        min_time=float(t.min()),
        max_time=float(t.max()),
        mean_iterations=means["iterations"],
        mean_rollbacks=means["rollbacks"],
        mean_corrections=means["corrections"],
        mean_faults=means["faults"],
        convergence_rate=means["converged"],
        reps=reps,
        ci_low=ci[0] if ci else None,
        ci_high=ci[1] if ci else None,
        confidence=confidence,
    )


def repeat_run(
    a: CSRMatrix,
    b: np.ndarray,
    config: SchemeConfig,
    *,
    alpha: float,
    reps: int,
    base_seed: int = 0,
    labels: tuple = (),
    eps: float = 1e-6,
    maxiter: int | None = None,
    max_time_units: float | None = None,
    method: "Method | str" = Method.CG,
    workspace: "object | None" = None,
    backend: "str | object | None" = None,
    tracer: "object | None" = None,
    per_rep: "dict | None" = None,
    policy: "SamplingPolicy | None" = None,
    prior: "dict | None" = None,
    on_batch=None,
) -> RunStatistics:
    """Run independent fault-injected solves and aggregate — the one
    repetition loop.

    Without ``policy`` exactly ``reps`` solves run: the
    ``SamplingPolicy(min_reps=reps, max_reps=reps)`` case of the loop,
    its CI reported at :data:`DEFAULT_CONFIDENCE`.  With a ``policy``
    (a :class:`repro.adaptive.SamplingPolicy`) repetitions run until
    the Student-t CI half-width on the mean time is below target, never
    fewer than ``policy.min_reps`` nor more than ``policy.max_reps``
    (``reps`` is not consulted); the rule is evaluated after every
    repetition on a :class:`repro.adaptive.Welford` accumulator and the
    CI is reported at ``policy.confidence``.  Repetition ``rep`` derives
    its RNG identically either way — the policy is task identity, not
    seed material — so stopping at ``k`` reps reproduces a fixed
    ``reps=k`` run bit-for-bit, statistics included.

    ``labels`` extends the seed-derivation tuple (matrix id, scheme …)
    so distinct experiment points never share fault streams;
    ``method`` selects the protected solver (the resilience engine's
    recurrence plugin) and, when it is not CG, additionally enters the
    seed tuple so methods never share fault streams either.

    ``backend`` names the kernel, ``"reference"`` (``None``) or
    ``"scipy"`` (:mod:`repro.backends`).  It deliberately does *not*
    enter the seed tuple: the same parameter point on both kernels
    faces the same strike sequence, which is exactly what a kernel
    comparison wants (campaign stores still keep them apart — the
    kernel is part of the task content hash).

    ``workspace`` (a :class:`repro.perf.SolveWorkspace`) runs every
    repetition through it: the live matrix, the solver buffers and the
    checkpoint staging are allocated once and restored between
    repetitions by strike-undo, and the ABFT checksums, ``‖A‖₁`` and
    the clean-trajectory memo are derived once per binding — a
    fraction of the wall clock, and shared across calls on one matrix
    (e.g. an interval sweep).  ``None`` (the default) gives each solve
    a private workspace (no trajectory memo: the memo-free oracle).
    Results are identical either way.

    Staleness caveat: a workspace stays bound to the matrix *object*.
    If you mutate ``a``'s arrays in place between calls, pass a fresh
    object or :meth:`~repro.perf.SolveWorkspace.release` the workspace
    first — otherwise its derived state describes the old values.

    ``tracer`` forwards a :class:`repro.obs.Tracer` to every
    repetition's solve; the repetition index is bound into the tracer's
    event context as ``"rep"`` for the duration of its run, so shard
    files can be regrouped per repetition.  Tracing is pure observation
    and cannot change trajectories (``None`` = off, the default).

    ``per_rep``, when given an empty dict, is filled with the
    per-repetition payload lists (see :data:`PER_REP_KEYS`) — the raw
    material the adaptive layer's prefix-sharing guarantees are stated
    (and golden-locked) against.  ``prior`` resumes from such a payload
    (recovered from a partial-progress record): already-completed
    repetitions are folded into the accumulator and *not* re-executed.
    ``on_batch(payload)`` is invoked after every ``policy.batch``
    newly-executed repetitions (the executor uses it to flush partial
    records).
    """
    adaptive = policy is not None
    if not adaptive:
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        policy = _fixed_policy(reps)
    method = Method.parse(method)
    run_ft_method = _registry().run_ft_method
    tr = resolve_tracer(tracer)
    payload = _copy_payload(prior) if prior else {k: [] for k in PER_REP_KEYS}
    acc = Welford(payload["times"])
    if adaptive and acc.n:
        METRICS.inc("adaptive.reps_resumed", acc.n)
    executed = 0
    try:
        while not policy.should_stop(acc.n, acc.mean, acc.std):
            rep = acc.n
            if tr is not None:
                tr.context["rep"] = rep
            res = run_ft_method(
                method,
                a,
                b,
                config,
                alpha=alpha,
                eps=eps,
                maxiter=maxiter,
                rng=_rep_rng(base_seed, method, config, alpha, labels, rep),
                max_time_units=max_time_units,
                workspace=workspace,
                backend=backend,
                tracer=tr,
            )
            payload["times"].append(res.time_units)
            payload["iterations"].append(res.iterations_executed)
            payload["rollbacks"].append(res.counters.rollbacks)
            payload["corrections"].append(res.counters.total_corrections)
            payload["faults"].append(res.counters.faults_injected)
            payload["converged"].append(res.converged)
            acc.push(res.time_units)
            executed += 1
            if adaptive:  # adaptive.* counters: never a fixed-count run's
                METRICS.inc("adaptive.reps")
            if on_batch is not None and executed % policy.batch == 0:
                on_batch(payload)
    finally:
        if tr is not None:
            tr.context.pop("rep", None)
    if adaptive:
        METRICS.inc("adaptive.tasks")
        METRICS.inc("adaptive.reps_saved", policy.max_reps - acc.n)
    if per_rep is not None:
        per_rep.update(payload)
    return _aggregate(payload, policy.confidence)


def _rep_rng(base_seed, method, config, alpha, labels, rep):
    """Per-repetition RNG.  The derivation tuple is the seeding invariant:
    it must never grow a sampling-policy component (docs/DESIGN.md §11) —
    adaptive and fixed-count runs share fault streams prefix-wise only
    because the tuple is identical for both."""
    if method is Method.CG:
        return spawn_named(base_seed, config.scheme.value, alpha, *labels, rep)
    return spawn_named(
        base_seed, method.value, config.scheme.value, alpha, *labels, rep
    )

