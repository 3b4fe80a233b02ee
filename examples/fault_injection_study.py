#!/usr/bin/env python
"""A miniature Figure-1 study on one suite matrix.

Sweeps the normalized MTBF (1/α) and compares the three schemes'
expected execution time, each at its model-optimal intervals — the
experiment behind the paper's headline claim that combining
checkpointing with ABFT *correction* beats pure checkpointing.

Run:  python examples/fault_injection_study.py [uid] [scale]
"""

import sys

from repro.core import CostModel, Scheme, SchemeConfig
from repro.perf import SolveWorkspace
from repro.sim.engine import make_rhs, repeat_run
from repro.model.instantiate import model_interval_for
from repro.sim.matrices import suite_specs


def main() -> None:
    uid = int(sys.argv[1]) if len(sys.argv) > 1 else 341
    scale = int(sys.argv[2]) if len(sys.argv) > 2 else 24
    spec = suite_specs([uid])[0]
    a = spec.instantiate(scale)
    b = make_rhs(a)
    costs = CostModel.from_matrix(a)
    print(
        f"matrix #{uid} (paper n={spec.n}, scaled n={a.nrows}, "
        f"{a.nnz / a.nrows:.1f} nnz/row)\n"
    )

    schemes = (Scheme.ONLINE_DETECTION, Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION)
    print(f"{'1/alpha':>8} | " + " | ".join(f"{s.value:>24}" for s in schemes))
    print("-" * (11 + 27 * 3))
    ws = SolveWorkspace()  # one live copy and checksum set for the whole sweep
    for mtbf in (16, 50, 100, 316, 1000, 10000):
        alpha = 1.0 / mtbf
        cells = []
        for scheme in schemes:
            s, d = model_interval_for(scheme, alpha, costs)
            cfg = SchemeConfig(
                scheme, checkpoint_interval=s, verification_interval=d, costs=costs
            )
            stats = repeat_run(
                a, b, cfg, alpha=alpha, reps=5, base_seed=7, labels=(uid, mtbf), eps=1e-6,
                workspace=ws,
            )
            cells.append(f"{stats.mean_time:10.1f} (s={s:3d},d={d:3d})")
        print(f"{mtbf:>8} | " + " | ".join(f"{c:>24}" for c in cells))

    print(
        "\nReading: at high fault rates (left) forward recovery keeps\n"
        "ABFT-CORRECTION ahead; as faults vanish the cheaper verifications\n"
        "win and the curves converge — the paper's Figure-1 shape."
    )


if __name__ == "__main__":
    main()
