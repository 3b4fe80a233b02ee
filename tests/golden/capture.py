"""Regenerate the golden-trajectory fixtures for the FT drivers.

The JSON written here pins the *exact* trajectories (simulated time,
solution-vector bytes, recovery counters, time breakdown) of
``run_ft_method("cg", ...)`` and ``run_ft_method("bicgstab", ...)`` for
a grid of (scheme, alpha, seed) points.  The fixtures were first captured from the pre-refactor
monolithic drivers (PR 1 tree); ``tests/test_resilience_golden.py``
asserts that the plugin-based resilience engine reproduces them
bit-for-bit.  Floats are stored via ``float.hex()`` so the comparison
is exact, and the solution vector is pinned by the SHA-256 of its raw
bytes.

Run from the repo root::

    python tests/golden/capture.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from repro.core import Scheme, SchemeConfig  # noqa: E402
from repro.resilience import run_ft_method  # noqa: E402
from repro.sparse import stencil_spd  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent / "ft_trajectories.json"

#: The capture grid: enough fault pressure to exercise corrections,
#: TMR votes, rollbacks and (at alpha=0.3) refresh-rollbacks.
CG_POINTS = [
    (Scheme.ONLINE_DETECTION, 4, 0.1), (Scheme.ONLINE_DETECTION, 4, 0.3),
    (Scheme.ABFT_DETECTION, 1, 0.1), (Scheme.ABFT_DETECTION, 1, 0.3),
    (Scheme.ABFT_CORRECTION, 1, 0.1), (Scheme.ABFT_CORRECTION, 1, 0.3),
]
BICGSTAB_POINTS = [
    (Scheme.ABFT_DETECTION, 0.1), (Scheme.ABFT_DETECTION, 0.25),
    (Scheme.ABFT_CORRECTION, 0.1), (Scheme.ABFT_CORRECTION, 0.25),
]
SEEDS = (0, 42)


def encode(res) -> dict:
    """Exact, JSON-stable encoding of one SolveResult."""
    return {
        "x_sha256": hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest(),
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "iterations_executed": int(res.iterations_executed),
        "time_units": float(res.time_units).hex(),
        "residual_norm": float(res.residual_norm).hex(),
        "threshold": float(res.threshold).hex(),
        "counters": {
            "faults_injected": res.counters.faults_injected,
            "detections": res.counters.detections,
            "corrections": dict(sorted(res.counters.corrections.items())),
            "rollbacks": res.counters.rollbacks,
            "checkpoints": res.counters.checkpoints,
            "verifications": res.counters.verifications,
            "tmr_corrections": res.counters.tmr_corrections,
            "tmr_detections": res.counters.tmr_detections,
            "final_check_failures": res.counters.final_check_failures,
        },
        "breakdown": {
            "useful_work": float(res.breakdown.useful_work).hex(),
            "wasted_work": float(res.breakdown.wasted_work).hex(),
            "verification": float(res.breakdown.verification).hex(),
            "checkpoint": float(res.breakdown.checkpoint).hex(),
            "recovery": float(res.breakdown.recovery).hex(),
        },
    }


def main() -> None:
    a = stencil_spd(529, kind="cross", radius=2)
    b = np.random.default_rng(77).normal(size=a.nrows)
    entries = []
    for scheme, d, alpha in CG_POINTS:
        for seed in SEEDS:
            cfg = SchemeConfig(scheme, checkpoint_interval=8, verification_interval=d)
            res = run_ft_method("cg", a, b, cfg, alpha=alpha, rng=seed, eps=1e-6)
            entries.append(
                {
                    "driver": "ft_cg",
                    "scheme": scheme.value,
                    "d": d,
                    "alpha": alpha,
                    "seed": seed,
                    "result": encode(res),
                }
            )
    for scheme, alpha in BICGSTAB_POINTS:
        for seed in SEEDS:
            cfg = SchemeConfig(scheme, checkpoint_interval=8)
            res = run_ft_method("bicgstab", a, b, cfg, alpha=alpha, rng=seed, eps=1e-6)
            entries.append(
                {
                    "driver": "ft_bicgstab",
                    "scheme": scheme.value,
                    "d": 1,
                    "alpha": alpha,
                    "seed": seed,
                    "result": encode(res),
                }
            )
    OUT.write_text(json.dumps({"matrix": "stencil_spd(529, kind='cross', radius=2)",
                               "rhs_seed": 77, "s": 8, "eps": 1e-6,
                               "entries": entries}, indent=1))
    print(f"wrote {len(entries)} golden trajectories to {OUT}")


if __name__ == "__main__":
    main()
