"""E1 — regenerate the paper's Table 1 (model validation).

Paper protocol (Section 5.2): for each of the nine matrices, with
``λ = 1/(16·M)`` per word, measure the mean execution time of
ABFT-DETECTION and ABFT-CORRECTION over a sweep of checkpoint
intervals; report the model's interval s̃ vs the empirically best s*
and the loss ``l``.

Shape criteria asserted here (absolute times are simulator units, not
the authors' 2015 wall-clock):

- the model interval is close to the empirical optimum (the paper's
  own l values reach 16–37% with 50 reps, so the assertion bounds the
  *interval* gap, not the time gap);
- ABFT-CORRECTION's model interval exceeds ABFT-DETECTION's (higher
  per-iteration success probability ⇒ sparser checkpoints).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_reps, bench_scale
from repro.api.study import Study
from repro.core import CostModel, Scheme, SchemeConfig
from repro.sim import format_table1
from repro.sim.engine import make_rhs, repeat_run
from repro.sim.matrices import suite_specs


def test_regenerate_table1(results_dir):
    """Regenerate Table 1 for the full nine-matrix suite."""
    rows = Study.table1(scale=bench_scale(), reps=bench_reps(), s_span=5).run().table1_rows()
    text = format_table1(rows)
    (results_dir / "table1.txt").write_text(text)
    print("\n" + text)

    by_scheme = {}
    for r in rows:
        by_scheme.setdefault(r.scheme, []).append(r)
    assert len(by_scheme["abft-detection"]) == 9
    assert len(by_scheme["abft-correction"]) == 9
    # Loss is non-negative by construction and the model interval must
    # sit in the neighbourhood of the empirical optimum for most
    # matrices (the paper's own Table 1 keeps s̃ within a few units of
    # s* everywhere).
    for scheme_rows in by_scheme.values():
        near = sum(1 for r in scheme_rows if abs(r.s_model - r.s_best) <= 8)
        assert near >= 6, [(r.uid, r.s_model, r.s_best) for r in scheme_rows]


def test_correction_interval_exceeds_detection():
    """Section 4.2.3: q_corr > q_det ⇒ s̃_corr > s̃_det, per matrix."""
    from repro.model.instantiate import model_interval_for

    for spec in suite_specs():
        a = spec.instantiate(bench_scale())
        costs = CostModel.from_matrix(a)
        s_det, _ = model_interval_for(Scheme.ABFT_DETECTION, 1 / 16, costs)
        s_cor, _ = model_interval_for(Scheme.ABFT_CORRECTION, 1 / 16, costs)
        assert s_cor > s_det, spec.uid


@pytest.mark.parametrize("uid", [341, 1312, 2213])
def test_bench_single_cell(benchmark, uid):
    """Wall-clock of one Table-1 cell (one matrix, one interval)."""
    spec = suite_specs([uid])[0]
    a = spec.instantiate(bench_scale() * 2)
    b = make_rhs(a)
    costs = CostModel.from_matrix(a)
    cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=12, costs=costs)

    def cell():
        return repeat_run(a, b, cfg, alpha=1 / 16, reps=1, base_seed=0, eps=1e-6)

    stats = benchmark(cell)
    assert stats.convergence_rate == 1.0
