"""The abstract performance model of Section 4.

Execution is partitioned into *frames* of ``s`` *chunks*; each chunk is
``T`` time units of work followed by a verification, and each frame
ends with a checkpoint.  Under an exponential error model with
per-chunk success probability ``q``, the expected frame time is
(paper Eq. 5)

    E(s, T) = Tcp + (q^{-s} − 1)·Trec + (T + Tverif)·(1 − qˢ)/(qˢ(1 − q))

and the optimal ``s`` minimizes the overhead ``E(s, T)/(sT)`` (Eq. 6),
which has no closed form and is resolved numerically.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.model.frames import (
        expected_time_lost,
        expected_frame_time,
        frame_overhead,
    )
    from repro.model.optimize import optimal_interval, optimal_online_intervals
    from repro.model.instantiate import (
        OnlineDetectionModel,
        AbftDetectionModel,
        AbftCorrectionModel,
        model_for_scheme,
    )
    from repro.model.daly import young_period, daly_period
    from repro.model.chen import chen_intervals
    from repro.model.dp import optimal_checkpoint_positions

__all__ = [
    "expected_time_lost",
    "expected_frame_time",
    "frame_overhead",
    "optimal_interval",
    "optimal_online_intervals",
    "OnlineDetectionModel",
    "AbftDetectionModel",
    "AbftCorrectionModel",
    "model_for_scheme",
    "young_period",
    "daly_period",
    "chen_intervals",
    "optimal_checkpoint_positions",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.model.frames": (
            "expected_time_lost",
            "expected_frame_time",
            "frame_overhead",
        ),
        "repro.model.optimize": ("optimal_interval", "optimal_online_intervals"),
        "repro.model.instantiate": (
            "OnlineDetectionModel",
            "AbftDetectionModel",
            "AbftCorrectionModel",
            "model_for_scheme",
        ),
        "repro.model.daly": ("young_period", "daly_period"),
        "repro.model.chen": ("chen_intervals",),
        "repro.model.dp": ("optimal_checkpoint_positions",),
    },
)
