"""Model instantiation for the three schemes (Section 4.2).

Each class binds the abstract frame model to one scheme's parameters:

- chunk length ``T`` (``d·Titer`` for ONLINE-DETECTION, ``Titer`` for
  the ABFT schemes, which verify every iteration),
- verification cost ``Tverif``,
- per-chunk success probability ``q``.

The crucial difference of ABFT-CORRECTION (Section 4.2.3) is its
success probability: an iteration *succeeds* if **zero or one** error
strikes (single errors are forward-corrected), so with a Poisson
process of rate λ,

    q = e^{−λT} + λT·e^{−λT},

strictly larger than the detection-only ``q = e^{−λT}`` — fewer
rollbacks and sparser checkpoints at the same fault rate.

:func:`model_interval_for` / :func:`resolve_intervals` are the
auto-interval policy every caller shares (``solve()``, ``Study`` and
the Table-1 / Figure-1 grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.methods import CostModel, Scheme
from repro.model.chen import chen_intervals
from repro.model.optimize import IntervalChoice, optimal_interval, optimal_online_intervals

__all__ = [
    "OnlineDetectionModel",
    "AbftDetectionModel",
    "AbftCorrectionModel",
    "model_for_scheme",
    "model_interval_for",
    "resolve_intervals",
    "MODEL_S_MAX",
]

#: Search ceiling for the Eq.-6 integer interval optimum.  Generous for
#: the paper's fault rates (optima land well under 100); large-MTBF
#: campaigns whose optimum grows past it can widen via the ``s_max``
#: parameter of :func:`model_interval_for`.
MODEL_S_MAX: int = 400


@dataclass(frozen=True)
class _SchemeModel:
    """Shared plumbing for the per-scheme models."""

    lam: float  #: cumulative silent-error rate λ = λ_a + λ_m
    costs: CostModel

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")

    # Subclasses define: chunk_time, t_verif, q().

    def expected_frame_time(self, s: int) -> float:
        """E(s, T) for this scheme's chunk parameters."""
        from repro.model.frames import expected_frame_time

        return expected_frame_time(
            s, self.chunk_time, self.costs.t_cp, self.costs.t_rec, self.t_verif, self.q()
        )

    def overhead(self, s: int) -> float:
        """E(s,T)/(sT) for this scheme."""
        from repro.model.frames import frame_overhead

        return frame_overhead(
            s, self.chunk_time, self.costs.t_cp, self.costs.t_rec, self.t_verif, self.q()
        )

    def optimal(self, *, s_max: int = 1000) -> IntervalChoice:
        """The model-optimal checkpoint interval s̃."""
        return optimal_interval(
            self.chunk_time,
            self.q(),
            self.costs.t_cp,
            self.costs.t_rec,
            self.t_verif,
            s_max=s_max,
        )

    def expected_solve_time(self, n_iterations: int, *, s: int | None = None) -> float:
        """Predicted total time for ``n_iterations`` of useful work.

        Uses the per-useful-unit overhead at interval ``s`` (optimal
        when None): ``n_iterations · Titer · overhead``.
        """
        choice_s = self.optimal().s if s is None else s
        work = n_iterations * self.costs.t_iter
        return work * self.overhead(choice_s) * (self.chunk_time / self.chunk_time)


@dataclass(frozen=True)
class OnlineDetectionModel(_SchemeModel):
    """Chen's scheme: chunks of ``d`` iterations (Section 4.2.1)."""

    d: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def chunk_time(self) -> float:
        return self.d * self.costs.t_iter

    @property
    def t_verif(self) -> float:
        return self.costs.t_verif_online

    def q(self) -> float:
        return math.exp(-self.lam * self.chunk_time)

    def optimal_joint(self, *, d_max: int = 200, s_max: int = 200) -> IntervalChoice:
        """Jointly optimize verification and checkpoint intervals."""
        return optimal_online_intervals(
            self.costs.t_iter,
            self.lam,
            self.costs.t_cp,
            self.costs.t_rec,
            self.t_verif,
            d_max=d_max,
            s_max=s_max,
        )


@dataclass(frozen=True)
class AbftDetectionModel(_SchemeModel):
    """ABFT detection every iteration (Section 4.2.2): T = Titer."""

    @property
    def chunk_time(self) -> float:
        return self.costs.t_iter

    @property
    def t_verif(self) -> float:
        return self.costs.t_verif_detect

    def q(self) -> float:
        return math.exp(-self.lam * self.chunk_time)


@dataclass(frozen=True)
class AbftCorrectionModel(_SchemeModel):
    """ABFT detect-2/correct-1 every iteration (Section 4.2.3).

    Success = zero **or one** strike in the iteration:
    ``q = e^{−λT}(1 + λT)``.
    """

    @property
    def chunk_time(self) -> float:
        return self.costs.t_iter

    @property
    def t_verif(self) -> float:
        return self.costs.t_verif_correct

    def q(self) -> float:
        lt = self.lam * self.chunk_time
        return math.exp(-lt) * (1.0 + lt)


def model_for_scheme(
    scheme: Scheme, lam: float, costs: CostModel, *, d: int = 1
) -> _SchemeModel:
    """Factory mapping a :class:`Scheme` to its instantiated model."""
    if scheme is Scheme.ONLINE_DETECTION:
        return OnlineDetectionModel(lam=lam, costs=costs, d=d)
    if scheme is Scheme.ABFT_DETECTION:
        return AbftDetectionModel(lam=lam, costs=costs)
    if scheme is Scheme.ABFT_CORRECTION:
        return AbftCorrectionModel(lam=lam, costs=costs)
    raise ValueError(f"unknown scheme: {scheme!r}")


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
    return model_for_scheme(scheme, lam, costs).optimal(s_max=s_max).s, 1


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
