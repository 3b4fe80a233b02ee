#!/usr/bin/env python
"""Fault-tolerant BiCGstab — the paper's scheme beyond CG.

Section 3: the ABFT + TMR + checkpoint combination applies to "CGNE,
BiCG, BiCGstab".  The engine runs BiCGstab (and Jacobi-PCG) as
recurrence plugins beside CG; this example runs BiCGstab with both
protected products per iteration under bit-flip injection.

Run:  python examples/bicgstab_resilience.py
"""

import numpy as np

from repro.core import Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.sparse import stencil_spd


def main() -> None:
    a = stencil_spd(2500, kind="cross", radius=2)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    print(f"matrix: n={a.nrows}, nnz={a.nnz}\n")

    print("fault-tolerant BiCGstab (both products ABFT-protected):")
    for scheme in (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION):
        cfg = SchemeConfig(scheme, checkpoint_interval=10)
        res = run_ft_method("bicgstab", a, b, cfg, alpha=0.1, rng=7, eps=1e-8)
        c = res.counters
        print(
            f"  {scheme.value:18s} time={res.time_units:7.1f} "
            f"faults={c.faults_injected:3d} corrected={c.total_corrections:3d} "
            f"rollbacks={c.rollbacks:3d} converged={res.converged}"
        )


if __name__ == "__main__":
    main()
