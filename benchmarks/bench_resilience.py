"""E8 — resilience engine: overhead vs the pre-refactor FT-CG driver.

The resilience-engine refactor replaced the monolithic FT-CG driver
with a plugin on :mod:`repro.resilience.engine`.  This bench runs the
engine (``run_ft_method("cg", ...)``) and the frozen pre-refactor monolith
(``benchmarks/_legacy_ft_cg.py``, kept verbatim) on the same
fault-injection workload, asserts the trajectories are bit-identical,
and records the wall-clock ratio so an abstraction tax would be
visible in ``benchmarks/results/``.

The workload is dominated by the same SpMxV/checksum kernels in both
drivers, so the ratio should sit near 1.0; the assertion only guards
against gross regressions (dispatch in the hot loop, accidental
copies).
"""

from __future__ import annotations

import json
import time
from functools import partial

import numpy as np

from benchmarks._legacy_ft_cg import run_ft_cg_legacy
from benchmarks.conftest import bench_reps, bench_scale
from repro.core import Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.sim.engine import make_rhs
from repro.sim.matrices import get_matrix

#: (scheme, d, alpha) points spanning all three protection modes.
POINTS = [
    (Scheme.ONLINE_DETECTION, 4, 0.1),
    (Scheme.ABFT_DETECTION, 1, 0.1),
    (Scheme.ABFT_CORRECTION, 1, 0.2),
]

#: The engine-based FT-CG driver.
engine_cg = partial(run_ft_method, "cg")


def _run_all(driver, a, b, reps):
    t0 = time.perf_counter()
    results = []
    for scheme, d, alpha in POINTS:
        cfg = SchemeConfig(scheme, checkpoint_interval=8, verification_interval=d)
        for seed in range(reps):
            with np.errstate(all="ignore"):
                results.append(
                    driver(a, b, cfg, alpha=alpha, rng=seed, eps=1e-6)
                )
    return results, time.perf_counter() - t0


def test_bench_engine_vs_legacy_driver(results_dir):
    a = get_matrix(2213, bench_scale())
    b = make_rhs(a)
    reps = max(2, bench_reps())

    # Warm both paths once (checksum/matrix caches, JIT-free but fair).
    _run_all(engine_cg, a, b, 1)
    _run_all(run_ft_cg_legacy, a, b, 1)

    engine_results, t_engine = _run_all(engine_cg, a, b, reps)
    legacy_results, t_legacy = _run_all(run_ft_cg_legacy, a, b, reps)

    # The refactor must not change the physics: every trajectory is
    # bit-identical to the monolith's.
    for got, want in zip(engine_results, legacy_results):
        assert got.time_units == want.time_units
        assert got.iterations_executed == want.iterations_executed
        np.testing.assert_array_equal(got.x, want.x)

    ratio = t_engine / t_legacy if t_legacy > 0 else float("inf")
    record = {
        "experiment": "resilience_engine_overhead",
        "matrix_uid": 2213,
        "scale": bench_scale(),
        "n": a.nrows,
        "runs_per_driver": reps * len(POINTS),
        "t_engine_s": round(t_engine, 3),
        "t_legacy_s": round(t_legacy, 3),
        "engine_over_legacy": round(ratio, 3),
    }
    (results_dir / "resilience_engine_overhead.json").write_text(
        json.dumps(record, indent=2)
    )
    print("\n" + json.dumps(record, indent=2))

    # Guard against gross abstraction tax only; wall-clock on shared CI
    # is too noisy for a tight bound.
    assert ratio < 1.5, f"engine-based FT-CG is {ratio:.2f}x the legacy driver"
