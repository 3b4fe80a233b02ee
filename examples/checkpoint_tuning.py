#!/usr/bin/env python
"""Tune the checkpointing interval with the Section-4 performance model.

Shows the overhead surface E(s,T)/(sT), the Eq.-6 numerical optimum,
the dynamic-programming placement it approximates, and a head-to-head
against simulation — the reasoning behind the paper's Table 1.

Run:  python examples/checkpoint_tuning.py
"""

import math

from repro.core import CostModel, Scheme, SchemeConfig
from repro.model import (
    frame_overhead,
    model_for_scheme,
    optimal_checkpoint_positions,
    young_period,
)
from repro.perf import SolveWorkspace
from repro.sim.engine import make_rhs, repeat_run
from repro.sparse import stencil_spd


def main() -> None:
    a = stencil_spd(1600, kind="cross", radius=2)
    b = make_rhs(a)
    costs = CostModel.from_matrix(a)
    alpha = 1 / 16  # the paper's Table-1 fault constant
    lam = alpha

    # --- the overhead surface for ABFT-CORRECTION --------------------
    model = model_for_scheme(Scheme.ABFT_CORRECTION, lam, costs)
    print("overhead E(s,T)/(sT) for ABFT-CORRECTION at 1/alpha = 16:")
    q = model.q()
    for s in (1, 2, 4, 8, 16, 32, 64, 128):
        h = frame_overhead(s, 1.0, costs.t_cp, costs.t_rec, costs.t_verif_correct, q)
        bar = "#" * int((h - 1.0) * 120)
        print(f"  s={s:4d}  {h:7.4f}  {bar}")
    best = model.optimal(s_max=500)
    print(f"Eq.-6 optimum: s~ = {best.s} (overhead {best.overhead:.4f})")

    # --- DP placement vs the periodic policy -------------------------
    dp = optimal_checkpoint_positions(
        60, 1.0, q, costs.t_cp, costs.t_rec, costs.t_verif_correct
    )
    print(f"DP frame sizes over a 60-chunk horizon: {dp.frame_sizes}")
    print(f"(near-uniform -> the periodic policy is near-optimal)")

    # --- classic closed forms for context -----------------------------
    print(f"Young period for the same Tcp/rate: {young_period(costs.t_cp, lam):.1f} chunks")

    # --- does the model's interval survive contact with simulation? ---
    print("\nsimulated mean time (5 reps) around the model interval:")
    ws = SolveWorkspace()  # one live copy and checksum set for the whole sweep
    for s in sorted({1, best.s // 2, best.s, 2 * best.s, 4 * best.s} - {0}):
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=s, costs=costs)
        stats = repeat_run(
            a, b, cfg, alpha=alpha, reps=5, base_seed=1, labels=(s,), eps=1e-6, workspace=ws
        )
        marker = "  <- model choice" if s == best.s else ""
        print(f"  s={s:4d}  {stats.mean_time:8.1f} ± {stats.sem_time:5.1f}{marker}")


if __name__ == "__main__":
    main()
