#!/usr/bin/env python
"""Observation stays free when off: the repository's one overhead gate.

Two switches sit on every hot path and must cost nothing while idle:

- **a disabled tracer.**  ``resolve_tracer`` collapses ``NullTracer``
  to the engine's ``tracer is None`` branch (docs/DESIGN.md §8), so
  ``repeat_run(..., tracer=NULL_TRACER)`` may pay one resolution call
  per solve, never anything per iteration;
- **an armed but idle guard.**  ``run_campaign(jobs=1)`` with
  ``retries=1`` and a ``task_timeout`` that never fires arms and
  disarms a real ``SIGALRM`` deadline around every task
  (docs/DESIGN.md §10); on a healthy campaign that must stay a thin
  wrapper.

Both are timed the same way against the call without the argument.
Each trial runs the symmetric sequence off, on, on, off, so linear
drift over the trial cancels in the ratio ``(on₁ + on₂) / (off₁ +
off₂)``; the two ``off`` samples time byte-identical calls, so their
spread is pure machine noise.  A check fails when the median ratio
exceeds 1 by more than :data:`MAX_OVERHEAD_PCT` plus the median
off-vs-off spread.

Run (no flags, no environment knobs; exits 1 on a breach)::

    python benchmarks/overhead_gate.py
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.campaign import CampaignSpec, run_campaign  # noqa: E402
from repro.core import Scheme, SchemeConfig  # noqa: E402
from repro.core.methods import CostModel  # noqa: E402
from repro.obs import NULL_TRACER  # noqa: E402
from repro.perf import SolveWorkspace  # noqa: E402
from repro.sim.engine import make_rhs, repeat_run  # noqa: E402
from repro.sim.matrices import get_matrix  # noqa: E402

#: The bar: idle observation may cost this much over the plain call,
#: plus the run's measured off-vs-off noise.
MAX_OVERHEAD_PCT = 2.0

#: Off/on/on/off trials per check; the medians are compared.
TRIALS = 5

#: Matrix-size divisor of both workloads (uid 2213, n = 625).
SCALE = 32

#: A deadline far above any task's runtime: armed per attempt, never fired.
IDLE_TIMEOUT_S = 600.0


def _seconds(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def paired_overhead(off, on) -> "tuple[float, float]":
    """``(overhead %, noise %)`` of ``on`` over ``off``: the median
    symmetric paired ratio and the median off-vs-off spread."""
    off()
    on()  # warm matrix, checksum and workspace caches on both paths
    ratios, spreads = [], []
    for _ in range(TRIALS):
        off_a = _seconds(off)
        on_a = _seconds(on)
        on_b = _seconds(on)
        off_b = _seconds(off)
        ratios.append((on_a + on_b) / (off_a + off_b))
        spreads.append(abs(off_b / off_a - 1.0))
    return 100.0 * (statistics.median(ratios) - 1.0), 100.0 * statistics.median(spreads)


def tracer_workload():
    """``repeat_run`` on a clean and a paper-range faulty point (strikes
    reach the engine's event emission sites)."""
    a = get_matrix(2213, SCALE)
    b = make_rhs(a)
    cfg = SchemeConfig(
        Scheme.ABFT_CORRECTION, checkpoint_interval=8, costs=CostModel.from_matrix(a)
    )

    def run(**kw) -> None:
        for alpha in (0.0, 0.01):
            repeat_run(a, b, cfg, alpha=alpha, reps=200, base_seed=0, eps=1e-6,
                       workspace=SolveWorkspace(), **kw)

    return run, lambda: run(tracer=NULL_TRACER)


def guard_workload():
    """A small Table-1 sweep through ``run_campaign(jobs=1)``."""
    tasks = CampaignSpec(
        kind="table1", scale=SCALE, reps=6, uids=(2213,), s_span=1
    ).expand()

    def run(**kw) -> None:
        run_campaign(tasks, jobs=1, **kw)

    return run, lambda: run(retries=1, task_timeout=IDLE_TIMEOUT_S)


CHECKS = (
    ("disabled tracer (NULL_TRACER vs none, repeat_run)", tracer_workload),
    ("armed idle guard (retries=1 + task_timeout vs none, run_campaign)", guard_workload),
)


def main() -> int:
    breaches = 0
    for name, workload in CHECKS:
        overhead, noise = paired_overhead(*workload())
        allowed = MAX_OVERHEAD_PCT + noise
        verdict = "ok" if overhead <= allowed else "BREACH"
        breaches += verdict != "ok"
        print(
            f"{name}: {overhead:+.2f} % "
            f"(allowed +{allowed:.2f} % = {MAX_OVERHEAD_PCT} % + {noise:.2f} % noise) {verdict}"
        )
    return 1 if breaches else 0


if __name__ == "__main__":
    raise SystemExit(main())
