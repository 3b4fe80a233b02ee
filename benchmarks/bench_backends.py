"""Backend axis: the substitutable kernel vs the reference, clean
*and* guarded.

For each measurable backend (``scipy``), three measurements against
the same-process reference baseline, correctness asserted before any
clock starts:

- **raw SpMxV** — the structure-clean fast path per suite matrix,
  best-of-``TRIALS`` over ``SPMV_ITERS`` products;
- **fault-free protected solve** — ``repro.solve`` at α = 0 on a
  subset of the suite, end to end (checksum verification, vector
  kernels and history recording dilute the kernel's share — the
  honest number for campaign throughput);
- **faulted protected solve** — the same subset at a paper-range
  fault constant (α = 0.1, the golden-trajectory rate): strikes dirty
  the structure stamp, so the *guarded* products — handed back to the
  NumPy reference kernel — run inside the timed region.

Backends that cannot be measured in this environment are recorded
honestly as ``"available": false`` with the reason (never with
fabricated timings); the regression gate in ``run_benchmarks.py``
skips them and compares committed-vs-fresh speedup *ratios* for the
rest.

The record lands in ``benchmarks/results/BENCH_backends.json``; the
committed copy at ``benchmarks/BENCH_backends.json`` is the repo's
reference measurement for the README's backend guidance.

Scale knobs: ``REPRO_BENCH_BACKEND_SCALE`` (suite-size divisor,
default 8 — large enough that the kernel dominates the product) and
``REPRO_BENCH_BACKEND_MIN`` (required aggregate raw-kernel speedup
for scipy, default 1.1 — a modest floor so noisy shared runners don't
flake; the committed record is the meaningful number).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import repro
from repro.backends import get_backend
from repro.sim.engine import make_rhs
from repro.sim.matrices import PAPER_SUITE, get_matrix
from repro.sparse.spmv import spmv

#: Raw-kernel products per timing trial.
SPMV_ITERS = 100

#: Best-of trials per measurement (minimum keeps only load spikes out).
TRIALS = 3

#: Suite subset for the end-to-end solve comparisons (one small, one
#: mid, one dense-ish entry; full-suite solves would dominate runtime).
SOLVE_UIDS = (1312, 2213, 341)

#: Paper-range fault constant for the guarded-path solve timing (the
#: golden trajectories' lower rate) and its fixed stream seed.
FAULTED_ALPHA = 0.1
FAULTED_SEED = 2015


def backend_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_BACKEND_SCALE", "8"))


def min_spmv_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_BACKEND_MIN", "1.1"))


def measurable_backends() -> "dict[str, str | None]":
    """Backend name -> None (measurable) or the reason it is not."""
    return {"scipy": None}


def _time_spmv(a, x, backend) -> float:
    out = np.empty(a.nrows)
    scratch = np.empty(max(a.nnz, 1))
    be = get_backend(backend)
    prepare = getattr(be, "prepare", None)
    if prepare is not None:
        prepare(a)  # kernel binding outside the clock
    be.spmv(a, x, out=out, scratch=scratch)  # warm
    best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        for _ in range(SPMV_ITERS):
            be.spmv(a, x, out=out, scratch=scratch)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_solve(a, b, backend, **solve_kwargs) -> float:
    kwargs = dict(eps=1e-6, backend=backend, reuse_workspace=True, **solve_kwargs)
    repro.solve(a, b, **kwargs)  # warm (matrix copy, checksum cache, kernel)
    best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        repro.solve(a, b, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_backend(name: str, scale: int, rng: np.random.Generator) -> dict:
    """All three sections for one backend, reference-relative."""
    spmv_points = []
    for spec in PAPER_SUITE:
        a = get_matrix(spec.uid, scale).copy()
        a.assume_clean_structure()  # the engine's structure-stamped state
        x = rng.standard_normal(a.ncols)
        # Numerical agreement before timing (few-ULP summation-order
        # differences are the allowed envelope).
        np.testing.assert_allclose(
            get_backend(name).spmv(a, x), spmv(a, x), rtol=1e-12, atol=1e-14
        )
        t_ref = _time_spmv(a, x, "reference")
        t_be = _time_spmv(a, x, name)
        spmv_points.append(
            {
                "uid": spec.uid,
                "n": a.nrows,
                "nnz": a.nnz,
                "t_reference_s": round(t_ref, 5),
                "t_backend_s": round(t_be, 5),
                "speedup_x": round(t_ref / t_be, 3),
            }
        )

    solve_points = []
    faulted_points = []
    for uid in SOLVE_UIDS:
        a = get_matrix(uid, scale)
        b = make_rhs(a)
        ref = repro.solve(a, b, eps=1e-6)
        be = repro.solve(a, b, eps=1e-6, backend=name)
        # Acceptance invariant: identical fault-free convergence
        # histories (same iterations; simulated clock identical).
        assert be.iterations == ref.iterations
        assert be.time_units == ref.time_units
        t_ref = _time_solve(a, b, "reference")
        t_be = _time_solve(a, b, name)
        solve_points.append(
            {
                "uid": uid,
                "n": a.nrows,
                "nnz": a.nnz,
                "iterations": ref.iterations,
                "t_reference_s": round(t_ref, 4),
                "t_backend_s": round(t_be, 4),
                "speedup_x": round(t_ref / t_be, 3),
            }
        )

        # Guarded path under fire: same fault stream on both backends
        # (the backend never enters the seed derivation).
        faults = repro.FaultSpec(alpha=FAULTED_ALPHA, seed=FAULTED_SEED)
        ref_f = repro.solve(a, b, eps=1e-6, faults=faults)
        be_f = repro.solve(a, b, eps=1e-6, faults=faults, backend=name)
        assert be_f.counters.faults_injected == ref_f.counters.faults_injected
        assert be_f.converged and ref_f.converged
        t_ref_f = _time_solve(a, b, "reference", faults=faults)
        t_be_f = _time_solve(a, b, name, faults=faults)
        faulted_points.append(
            {
                "uid": uid,
                "n": a.nrows,
                "nnz": a.nnz,
                "faults_injected": ref_f.counters.faults_injected,
                "t_reference_s": round(t_ref_f, 4),
                "t_backend_s": round(t_be_f, 4),
                "speedup_x": round(t_ref_f / t_be_f, 3),
            }
        )

    def _agg(points):
        return round(
            sum(p["t_reference_s"] for p in points)
            / sum(p["t_backend_s"] for p in points),
            3,
        )

    return {
        "available": True,
        "spmv": spmv_points,
        "solve_fault_free": solve_points,
        "solve_faulted": faulted_points,
        "aggregate_spmv_speedup_x": _agg(spmv_points),
        "aggregate_solve_speedup_x": _agg(solve_points),
        "aggregate_faulted_solve_speedup_x": _agg(faulted_points),
    }


def run_backends_bench(scale: int) -> dict:
    """Measure every measurable backend; returns the JSON-ready record."""
    backends: dict = {}
    for name, unavailable_reason in measurable_backends().items():
        if unavailable_reason is not None:
            # Honest record: no timings are ever fabricated for a
            # backend this environment cannot run.
            backends[name] = {"available": False, "reason": unavailable_reason}
            continue
        backends[name] = _measure_backend(
            name, scale, np.random.default_rng(2015)
        )
    return {
        "experiment": "backends_kernel_axis",
        "scale": scale,
        "spmv_iters": SPMV_ITERS,
        "trials": TRIALS,
        "solve_uids": list(SOLVE_UIDS),
        "faulted": {"alpha": FAULTED_ALPHA, "seed": FAULTED_SEED},
        "backends": backends,
    }


def test_bench_backends(results_dir):
    record = run_backends_bench(backend_scale())
    (results_dir / "BENCH_backends.json").write_text(json.dumps(record, indent=2))
    print("\n" + json.dumps(record, indent=2))

    agg = record["backends"]["scipy"]["aggregate_spmv_speedup_x"]
    required = min_spmv_speedup()
    assert agg >= required, (
        f"scipy raw-kernel speedup is only {agg:.2f}x over the suite "
        f"(required {required}x) — the backend has stopped paying for itself"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import pathlib

    out = pathlib.Path(__file__).parent / "results"
    out.mkdir(exist_ok=True)
    rec = run_backends_bench(backend_scale())
    (out / "BENCH_backends.json").write_text(json.dumps(rec, indent=2))
    print(json.dumps(rec, indent=2))
