"""E8 (ablation) — where the time goes: waste breakdown vs fault rate.

Decomposes each scheme's simulated execution time into useful work,
rolled-back (wasted) work, verification, checkpoint and recovery — the
quantities the Section-4 model trades off.  The measured overhead ratio
is compared against the model's ``E(s,T)/(sT)`` prediction at the same
interval, closing the loop between simulator and model.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale
from repro.core import CostModel, Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.model import model_for_scheme
from repro.sim.engine import make_rhs
from repro.model.instantiate import model_interval_for
from repro.sim.matrices import suite_specs


def test_regenerate_breakdown_table(results_dir):
    spec = suite_specs([924])[0]
    a = spec.instantiate(bench_scale())
    b = make_rhs(a)
    costs = CostModel.from_matrix(a)

    lines = [
        f"{'scheme':18} {'1/a':>6} {'useful':>8} {'wasted':>8} {'verif':>8} "
        f"{'ckpt':>7} {'rec':>7} {'ovh(sim)':>9} {'ovh(model)':>10}"
    ]
    for mtbf in (16, 100, 1000):
        alpha = 1.0 / mtbf
        for scheme in (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION):
            s, d = model_interval_for(scheme, alpha, costs)
            cfg = SchemeConfig(scheme, checkpoint_interval=s, costs=costs)
            res = run_ft_method("cg", a, b, cfg, alpha=alpha, rng=1, eps=1e-6)
            bd = res.breakdown
            model = model_for_scheme(scheme, alpha, costs)
            lines.append(
                f"{scheme.value:18} {mtbf:>6} {bd.useful_work:>8.1f} {bd.wasted_work:>8.1f} "
                f"{bd.verification:>8.1f} {bd.checkpoint:>7.1f} {bd.recovery:>7.1f} "
                f"{bd.overhead_ratio:>9.3f} {model.overhead(s):>10.3f}"
            )
            # The simulator's measured overhead must be in the model's
            # ballpark (single run → generous factor).
            assert bd.overhead_ratio == pytest.approx(model.overhead(s), rel=0.6)
    text = "\n".join(lines) + "\n"
    (results_dir / "breakdown.txt").write_text(text)
    print("\n" + text)


def test_waste_shrinks_with_mtbf():
    spec = suite_specs([924])[0]
    a = spec.instantiate(bench_scale())
    b = make_rhs(a)
    costs = CostModel.from_matrix(a)
    cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=8, costs=costs)
    wasted = []
    for mtbf in (8, 64, 10**4):
        res = run_ft_method("cg", a, b, cfg, alpha=1.0 / mtbf, rng=5, eps=1e-6)
        wasted.append(res.breakdown.wasted_work)
    assert wasted[0] > wasted[-1]
    assert wasted[-1] == 0.0 or wasted[-1] < wasted[0] * 0.2


def test_bench_ft_bicgstab_run(benchmark):
    """Wall-clock of a fault-tolerant BiCGstab solve (extension E9)."""
    spec = suite_specs([924])[0]
    a = spec.instantiate(bench_scale() * 2)
    b = make_rhs(a)
    cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=10)
    res = benchmark(lambda: run_ft_method("bicgstab", a, b, cfg, alpha=1 / 16, rng=0, eps=1e-6))
    assert res.converged
