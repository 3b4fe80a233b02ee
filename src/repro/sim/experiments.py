"""Drivers for the paper's two evaluation artifacts.

Table 1 (Section 5.2, model validation)
    For each suite matrix, with ``λ = 1/(16M)`` per word (``α = 1/16``):
    sweep the checkpoint interval ``s``, measure mean execution time
    over ``reps`` runs for ABFT-DETECTION and ABFT-CORRECTION, and
    compare the empirically best interval ``s*`` with the
    model-predicted ``s̃`` (Eq. 6), reporting the loss ``l``.

Figure 1 (Section 5.2, scheme comparison)
    For each suite matrix, sweep the normalized MTBF ``1/α`` and plot
    mean execution time of ONLINE-DETECTION (intervals from Chen's
    formula), ABFT-DETECTION and ABFT-CORRECTION (intervals from the
    Eq.-6 optimum).

Both drivers take a ``scale`` divisor (see
:mod:`repro.sim.matrices`) — ``scale=1`` is the paper's full size,
larger values shrink matrices for laptop-speed sweeps while preserving
per-row density.  ``python -m repro table1 --help`` (and ``figure1``)
runs them from the command line.

Both drivers are thin :class:`repro.api.study.Study` definitions: the
preset ``Study.table1()`` / ``Study.figure1()`` grids expand to the
same content-hashable tasks the serial loops used to iterate, execute
through the campaign engine (``jobs`` fan-out, JSONL ``store``,
resume), and aggregate back into the same rows/points.  Seeding
depends only on task identity, so any ``jobs`` setting is
bit-identical to ``jobs=1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.methods import CostModel, Scheme
from repro.model.chen import chen_intervals
from repro.model.instantiate import model_for_scheme

if TYPE_CHECKING:  # pragma: no cover
    import os

    from repro.store.protocol import StoreBackend
    from repro.sim.results import Figure1Point, Table1Row

__all__ = [
    "run_table1",
    "run_figure1",
    "model_interval_for",
    "resolve_intervals",
    "default_s_grid",
    "MODEL_S_MAX",
    "DEFAULT_MTBF_VALUES",
]

#: Paper's Table-1 fault constant: λ = 1/(16 M) per word → α = 1/16.
TABLE1_ALPHA: float = 1.0 / 16.0

#: Search ceiling for the Eq.-6 integer interval optimum.  Generous for
#: the paper's fault rates (optima land well under 100); large-MTBF
#: campaigns whose optimum grows past it can widen via the ``s_max``
#: parameter of :func:`model_interval_for`.
MODEL_S_MAX: int = 400

#: Figure 1's default x-axis ``1/α``: the paper spans roughly 10²–10⁴,
#: plus the Table-1 point 16 for continuity with the high-rate regime.
DEFAULT_MTBF_VALUES: tuple[float, ...] = (16.0, 10**2, 10**2.5, 10**3, 10**3.5, 10**4)


def model_interval_for(
    scheme: Scheme, alpha: float, costs: CostModel, *, s_max: int = MODEL_S_MAX
) -> tuple[int, int]:
    """Model-recommended ``(s, d)`` for a scheme at fault constant α.

    λ in the performance model is the cumulative rate per time unit,
    which equals α under the paper's normalization.  ONLINE-DETECTION
    uses Chen's closed-form intervals [9, Eq. 10-style]; the ABFT
    schemes use the exact Eq.-6 integer optimum, searched up to
    ``s_max``.
    """
    lam = alpha / costs.t_iter
    if scheme is Scheme.ONLINE_DETECTION:
        ch = chen_intervals(
            costs.t_iter, lam, costs.t_cp, costs.t_verif_online, costs.t_rec
        )
        return ch.c, ch.d
    model = model_for_scheme(scheme, lam, costs)
    return model.optimal(s_max=s_max).s, 1


def resolve_intervals(
    scheme: Scheme,
    alpha: float,
    costs,
    *,
    s: "int | str" = "auto",
    d: "int | str" = "auto",
    s_max: int = MODEL_S_MAX,
    default_s: int = 10,
    recommend: bool = False,
) -> "tuple[int, int, int | None]":
    """Resolve ``"auto"`` checkpoint/verification intervals for one run.

    The single statement of the auto-interval policy shared by
    :func:`repro.api.solve` and :class:`repro.api.study.Study`:
    ``s="auto"`` takes the Eq.-6/Chen model optimum (``default_s`` when
    injection is off and the model is moot); ``d="auto"`` takes Chen's
    value for ONLINE-DETECTION and 1 for the ABFT schemes.

    Returns ``(s, d, s_model)`` with ``s_model`` the model's
    recommendation.  The model is only evaluated when an interval
    actually needs it (or ``recommend`` forces it for reporting) and
    ``alpha > 0`` — otherwise ``s_model`` is ``None``.  ``costs`` may
    be a :class:`~repro.core.methods.CostModel` or a zero-argument
    callable producing one, evaluated only if the model runs (so
    callers can defer a matrix build that pinned intervals never need).
    """
    needs_model = (
        recommend or s == "auto" or (d == "auto" and scheme is Scheme.ONLINE_DETECTION)
    )
    rec_s: "int | None" = None
    rec_d: "int | None" = None
    if alpha > 0 and needs_model:
        if callable(costs):
            costs = costs()
        rec_s, rec_d = model_interval_for(scheme, alpha, costs, s_max=s_max)
    out_s = s if isinstance(s, int) else (rec_s if rec_s is not None else default_s)
    if isinstance(d, int):
        out_d = d
    elif scheme is Scheme.ONLINE_DETECTION and rec_d is not None:
        out_d = rec_d
    else:
        out_d = 1
    return out_s, out_d, rec_s


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


def run_table1(
    *,
    scale: int = 16,
    reps: int = 10,
    alpha: float = TABLE1_ALPHA,
    uids: "list[int] | None" = None,
    eps: float = 1e-6,
    base_seed: int = 2015,
    s_span: int = 6,
    jobs: int = 1,
    store: "StoreBackend | str | os.PathLike[str] | None" = None,
    progress: "bool | str" = False,
    methods: "list[str] | None" = None,
    backend: str = "reference",
    trace_dir: "str | os.PathLike[str] | None" = None,
    task_timeout: "float | None" = None,
    retries: int = 0,
    chaos=None,
    sampling: str = "",
) -> list[Table1Row]:
    """Reproduce Table 1 (both ABFT schemes); returns one row per
    (matrix, method, scheme).

    ``jobs`` fans the sweep out over worker processes (results are
    bit-identical for any value); ``store`` persists per-task records
    — a bare path for single-file JSONL, ``sharded:dir`` /
    ``sqlite:file.db`` for the concurrent backends
    (:mod:`repro.store`), or a pre-built store backend, forwarded to
    the campaign executor untouched — skipping tasks already completed
    there;
    ``progress`` prints a throughput/ETA line to stderr (``True`` /
    ``"bar"`` for the status line, ``"json"`` for newline-delimited
    JSON objects); ``methods`` opens the solver axis (default: classic
    CG only); ``backend`` selects the kernel backend every task runs on
    (:mod:`repro.backends` — the default reference backend is the
    bit-identity oracle the golden fixtures lock); ``trace_dir``
    collects per-worker JSONL trace shards (:mod:`repro.obs`);
    ``task_timeout`` / ``retries`` / ``chaos`` are the self-healing
    and fault-injection knobs of the campaign executor
    (``docs/DESIGN.md`` §10) — note a quarantined task leaves its
    sweep group incomplete, which this full aggregation reports as an
    error naming the poison task; ``sampling`` switches every task to
    adaptive sequential sampling (``docs/DESIGN.md`` §11) — a policy
    spec like ``"ci=0.05,conf=0.95,min=5,max=200"``, under which
    ``reps`` is ignored in favour of the policy's rep cap.
    """
    from repro.api.study import Study

    study = Study.table1(
        scale=scale,
        reps=reps,
        alpha=alpha,
        uids=uids,
        eps=eps,
        base_seed=base_seed,
        s_span=s_span,
        methods=methods,
        backend=backend,
        sampling=sampling,
    )
    return study.run(
        jobs=jobs,
        store=store,
        progress=progress,
        trace_dir=trace_dir,
        task_timeout=task_timeout,
        retries=retries,
        chaos=chaos,
    ).table1_rows()


def run_figure1(
    *,
    scale: int = 16,
    reps: int = 10,
    mtbf_values: "list[float] | None" = None,
    uids: "list[int] | None" = None,
    eps: float = 1e-6,
    base_seed: int = 2015,
    jobs: int = 1,
    store: "StoreBackend | str | os.PathLike[str] | None" = None,
    progress: "bool | str" = False,
    methods: "list[str] | None" = None,
    backend: str = "reference",
    trace_dir: "str | os.PathLike[str] | None" = None,
    task_timeout: "float | None" = None,
    retries: int = 0,
    chaos=None,
    sampling: str = "",
) -> list[Figure1Point]:
    """Reproduce Figure 1: execution time vs normalized MTBF, all schemes.

    ``mtbf_values`` are the x-axis points ``1/α`` (default:
    :data:`DEFAULT_MTBF_VALUES`).  ``jobs`` / ``store`` / ``progress``
    / ``methods`` / ``backend`` / ``trace_dir`` / ``sampling`` behave
    as in :func:`run_table1` (non-CG methods contribute only the two
    ABFT series — Chen's ONLINE-DETECTION is CG-specific).
    """
    from repro.api.study import Study

    study = Study.figure1(
        scale=scale,
        reps=reps,
        mtbf_values=mtbf_values,
        uids=uids,
        eps=eps,
        base_seed=base_seed,
        methods=methods,
        backend=backend,
        sampling=sampling,
    )
    return study.run(
        jobs=jobs,
        store=store,
        progress=progress,
        trace_dir=trace_dir,
        task_timeout=task_timeout,
        retries=retries,
        chaos=chaos,
    ).figure1_points()
