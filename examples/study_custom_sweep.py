#!/usr/bin/env python
"""A sweep the paper never ran: interval sensitivity at fixed α.

Table 1 compares only two interval choices per scheme — the model's
prediction s̃ and the empirical optimum s* found by a narrow sweep.
This study instead maps the whole execution-time-vs-interval curve at
the paper's fault constant α = 1/16, for both ABFT schemes, on one
suite matrix — showing how flat (or sharp) the optimum really is and
how much a badly chosen interval costs.

Declared in a few lines with :class:`repro.Study`; runs on the campaign
engine (fan it out with jobs=N or persist/resume with store=...).

Run:  python examples/study_custom_sweep.py
"""

from repro import CostModel, Study
from repro.core.methods import Scheme
from repro.model.instantiate import model_interval_for
from repro.sim.matrices import get_matrix

UID, SCALE, ALPHA = 2213, 32, 1.0 / 16.0


def main() -> None:
    study = (
        Study("interval-sensitivity")
        .axis("scheme", ["abft-detection", "abft-correction"])
        .axis("s", [1, 2, 3, 4, 6, 8, 12, 16, 24, 28, 32, 48])
        .fix(uid=UID, alpha=ALPHA, scale=SCALE, reps=3)
        .metrics("mean_time", "mean_rollbacks", "convergence_rate")
    )
    print(f"{len(study.tasks())} tasks; sweeping s at alpha={ALPHA:g} "
          f"on matrix #{UID} (scale {SCALE})")
    result = study.run(jobs=None, progress=True)  # None = all cores
    print()
    print(result.format_table())

    # Where does the model say the optimum is?
    costs = CostModel.from_matrix(get_matrix(UID, SCALE))
    for scheme in (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION):
        s_model, _ = model_interval_for(scheme, ALPHA, costs)
        curve = {p.s: p.stats.mean_time for p in result.points()
                 if p.scheme == scheme.value}
        s_best = min(curve, key=curve.get)
        if s_model in curve:
            loss = (curve[s_model] - curve[s_best]) / curve[s_best] * 100
            loss_text = f"loss at s~ = {loss:.2f}%"
        else:
            loss_text = "s~ outside the swept grid"
        print(f"{scheme.value:17s}: model s~={s_model:3d}, empirical s*={s_best:3d}, "
              f"{loss_text}")

    print("\nsame sweep from the shell:\n"
          '  python -c "from repro import Study; '
          "Study('interval-sensitivity').axis('s', range(1, 49))"
          f".fix(uid={UID}, alpha=1/16, scale={SCALE}, reps=3)"
          '.save(\'sweep.json\')"\n'
          "  repro study run sweep.json --jobs 4 --store sweep.jsonl")


if __name__ == "__main__":
    main()
