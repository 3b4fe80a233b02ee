"""E2 — regenerate the paper's Figure 1 (time vs normalized MTBF).

Nine panels (one per matrix), three series each: ONLINE-DETECTION
(dotted in the paper), ABFT-DETECTION (dashed), ABFT-CORRECTION
(solid), over normalized MTBF 1/α.

Shape criteria (who wins, where crossovers fall — Section 5.2):

1. every scheme's time is non-increasing (mod noise) in the MTBF;
2. at the high fault rate (1/α = 16), ABFT-CORRECTION beats
   ABFT-DETECTION on a majority of matrices (forward recovery avoids
   rollbacks);
3. at very low fault rates the ranking tightens and ABFT-CORRECTION
   loses its lead (its extra checksums stop paying — the paper's
   "slightly slower … for very small values of λ").
"""

from __future__ import annotations

import collections

import pytest

from benchmarks.conftest import bench_reps, bench_scale
from repro.api.study import Study
from repro.sim import format_figure1
from repro.sim.results import to_csv

MTBFS = [16.0, 10**2, 10**2.5, 10**3, 10**4]


def test_regenerate_figure1(results_dir):
    """Regenerate all nine Figure-1 panels; write table + CSV."""
    study = Study.figure1(scale=bench_scale(), reps=bench_reps(), mtbf_values=MTBFS)
    pts = study.run().figure1_points()
    text = format_figure1(pts)
    (results_dir / "figure1.txt").write_text(text)
    to_csv(pts, str(results_dir / "figure1.csv"))
    print("\n" + text)

    from repro.sim.results import ascii_panel

    panels = "\n".join(ascii_panel(pts, uid) for uid in sorted({p.uid for p in pts}))
    (results_dir / "figure1_panels.txt").write_text(panels)

    series = collections.defaultdict(dict)
    for p in pts:
        series[(p.uid, p.scheme)][p.normalized_mtbf] = p.mean_time

    # (1) Times broadly decrease as faults get rarer.
    for (uid, scheme), curve in series.items():
        assert curve[10**4] <= curve[16.0] * 1.15, (uid, scheme)

    # (2) High-rate regime: correction's forward recovery wins on a
    # majority of matrices against detection's rollbacks.
    corr_wins = sum(
        1
        for uid in {u for (u, _) in series}
        if series[(uid, "abft-correction")][16.0]
        <= series[(uid, "abft-detection")][16.0] * 1.02
    )
    assert corr_wins >= 5, corr_wins

    # (3) Low-rate regime: correction's advantage disappears (it pays
    # the heavier per-iteration checksums with nothing to correct).
    corr_leads_low = sum(
        1
        for uid in {u for (u, _) in series}
        if series[(uid, "abft-correction")][10**4]
        < series[(uid, "abft-detection")][10**4] * 0.98
    )
    assert corr_leads_low <= 4, corr_leads_low


@pytest.mark.parametrize("mtbf", [16.0, 1000.0])
def test_bench_figure1_point(benchmark, mtbf):
    """Wall-clock of one Figure-1 point (matrix #2213, all schemes)."""

    def point():
        study = Study.figure1(scale=bench_scale() * 2, reps=1, uids=[2213], mtbf_values=[mtbf])
        return study.run().figure1_points()

    pts = benchmark(point)
    assert len(pts) == 3
