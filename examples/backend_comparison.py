#!/usr/bin/env python
"""One protected solve, every kernel backend.

The solve stack draws its numerical primitives — the SpMxV hot kernel,
the ABFT checksum setup, the residual norms — from a pluggable
**kernel backend** (``repro.backends``).  This demo runs the *same*
fault-tolerant solve (same matrix, same fault stream) on every backend
this machine can run and compares:

- **physics**: iterations, simulated time and injected faults are
  identical on every backend — the backend never enters the fault
  seed derivation, only the task hash;
- **bits**: ``reference`` is the bit-identity oracle; ``scipy`` and
  ``dense`` are numerically equivalent (few-ULP summation-order
  differences);
- **wall time**: where the compiled kernel pays — under fault
  injection too, where strikes dirty the structure stamp and every
  backend hands those products to the reference kernel.

Backends that cannot run here (a missing dependency, the dense
backend's size cap) are skipped with the reason.

Run:  python examples/backend_comparison.py
"""

import time

import numpy as np

from repro import FaultSpec, solve, stencil_spd
from repro.backends import available_backends, get_backend


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

    header = (f"{'backend':10s} {'wall':>8s} {'iters':>6s} {'faults':>6s} "
              f"{'sim time':>8s} {'solution':>12s}")
    print(header)
    print("-" * len(header))
    for name in sorted(available_backends()):
        try:
            be = get_backend(name)
            solve(a, b, backend=be, **kwargs)  # warm: caches, kernel binding
        except ValueError as exc:  # a missing dependency, the dense n-cap
            print(f"{name:10s}  skipped: {exc}")
            continue
        t0 = time.perf_counter()
        report = solve(a, b, backend=be, **kwargs)
        wall = time.perf_counter() - t0

        # Identical physics on every backend ...
        assert report.iterations == reference.iterations
        assert report.time_units == reference.time_units
        assert report.counters.faults_injected == \
            reference.counters.faults_injected
        # ... and identical *bits* where the backend promises them.
        bit_identical = report.solution_sha256 == reference.solution_sha256
        if name == "reference":
            assert bit_identical, f"{name} broke its bit-identity contract"
        c = report.counters
        print(f"{name:10s} {wall * 1e3:7.1f}ms {report.iterations_executed:6d} "
              f"{c.faults_injected:6d} {report.time_units:8.1f} "
              f"{'bit-identical' if bit_identical else 'equivalent':>12s}")

    print(
        "\nSame iterations, same simulated clock, same fault stream\n"
        "everywhere: the backend axis changes how fast the floats are\n"
        "computed, never the physics under study.  The full contract is\n"
        "docs/DESIGN.md §6; the campaign ledger (benchmarks/e2e/) times\n"
        "the kernels as backends.spmv_us."
    )


if __name__ == "__main__":
    main()
