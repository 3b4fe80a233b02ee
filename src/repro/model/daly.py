"""Young/Daly closed-form checkpoint periods (fail-stop baselines).

The paper cites these as the classical results for *pure periodic
checkpointing* against fail-stop errors — the closed forms that do
**not** exist once verifications are in the loop (hence the numerical
Eq.-6 optimization).  They are included as baselines for the model
ablation (``tests/test_model_optimize.py``): in the regime of cheap verification, the Eq.-6
optimum approaches the Young/Daly period divided by the chunk length.
"""

from __future__ import annotations

import math

from repro.util.validate import check_positive

__all__ = ["young_period", "daly_period"]


def young_period(t_cp: float, lam: float) -> float:
    """Young's first-order optimum ``T_opt = sqrt(2·Tcp/λ)`` [Young'74]."""
    check_positive("t_cp", t_cp)
    check_positive("lam", lam)
    return math.sqrt(2.0 * t_cp / lam)


def daly_period(t_cp: float, lam: float) -> float:
    """Daly's higher-order estimate [Daly'04].

    .. math::

        T_{opt} = \\sqrt{2 δ M}\\left[1 + \\tfrac13\\sqrt{δ/(2M)}
                 + \\tfrac19 (δ/(2M))\\right] − δ,  \\quad δ < 2M

    with ``δ = Tcp`` and ``M = 1/λ`` the MTBF; for ``δ ≥ 2M`` Daly
    prescribes ``T_opt = M``.
    """
    check_positive("t_cp", t_cp)
    check_positive("lam", lam)
    mtbf = 1.0 / lam
    if t_cp >= 2.0 * mtbf:
        return mtbf
    ratio = t_cp / (2.0 * mtbf)
    return math.sqrt(2.0 * t_cp * mtbf) * (
        1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0
    ) - t_cp
