#!/usr/bin/env python
"""One protected solve, on both kernels.

Every SpMxV of a solve runs on one of two kernels (``repro.backends``):
``reference``, the repository's own NumPy kernel, or ``scipy``, SciPy's
compiled CSR matvec for structure-clean products.  This demo runs the
*same* fault-tolerant solve (same matrix, same fault stream) on both and
compares:

- **physics**: iterations, simulated time and injected faults are
  identical — the kernel never enters the fault seed derivation, only
  the task hash;
- **bits**: ``reference`` is the bit-identity oracle; ``scipy`` is
  numerically equivalent (few-ULP summation-order differences);
- **wall time**: where the compiled kernel pays — under fault
  injection too, where strikes dirty the structure stamp and those
  products take the reference kernel on both.

Without SciPy the ``scipy`` row is skipped with the reason.

Run:  python examples/backend_comparison.py
"""

import time

import numpy as np

from repro import FaultSpec, solve, stencil_spd


def main() -> None:
    a = stencil_spd(2500, kind="cross", radius=3)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.nrows)
    faults = FaultSpec(alpha=0.1, seed=42)
    kwargs = dict(scheme="abft-correction", faults=faults, eps=1e-8,
                  reuse_workspace=True)

    print(f"matrix: n={a.nrows}, nnz={a.nnz} — abft-correction, "
          f"alpha={faults.alpha}, seed={faults.seed}\n")

    reference = solve(a, b, backend="reference", **kwargs)

    header = (f"{'kernel':10s} {'wall':>8s} {'iters':>6s} {'faults':>6s} "
              f"{'sim time':>8s} {'solution':>12s}")
    print(header)
    print("-" * len(header))
    for name in ("reference", "scipy"):
        try:
            solve(a, b, backend=name, **kwargs)  # warm: caches, kernel binding
        except ValueError as exc:  # SciPy is not installed
            print(f"{name:10s}  skipped: {exc}")
            continue
        t0 = time.perf_counter()
        report = solve(a, b, backend=name, **kwargs)
        wall = time.perf_counter() - t0

        # Identical physics on both kernels ...
        assert report.iterations == reference.iterations
        assert report.time_units == reference.time_units
        assert report.counters.faults_injected == \
            reference.counters.faults_injected
        # ... and identical *bits* where the kernel promises them.
        bit_identical = report.solution_sha256 == reference.solution_sha256
        if name == "reference":
            assert bit_identical, f"{name} broke its bit-identity contract"
        c = report.counters
        print(f"{name:10s} {wall * 1e3:7.1f}ms {report.iterations_executed:6d} "
              f"{c.faults_injected:6d} {report.time_units:8.1f} "
              f"{'bit-identical' if bit_identical else 'equivalent':>12s}")

    print(
        "\nSame iterations, same simulated clock, same fault stream on\n"
        "both: the kernel changes how fast the floats are computed, never\n"
        "the physics under study.  The routing rule is docs/DESIGN.md §6;\n"
        "the campaign ledger (benchmarks/e2e/) times the kernels as\n"
        "backends.spmv_us."
    )


if __name__ == "__main__":
    main()
