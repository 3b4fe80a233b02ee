"""repro — backward + forward recovery for silent errors in iterative solvers.

A production-quality reproduction of:

    M. Fasi, Y. Robert, B. Uçar, *Combining backward and forward
    recovery to cope with silent errors in iterative solvers*,
    PDSEC 2015 (IEEE IPDPSW), pp. 980–989.

The library provides:

- a raw-array CSR sparse substrate (:mod:`repro.sparse`);
- ABFT-protected SpMxV with single-error detection or double-detect /
  single-correct, including the floating-point tolerance of Theorem 2
  (:mod:`repro.abft`);
- bit-flip silent-error injection under the paper's fault model
  (:mod:`repro.faults`);
- verified checkpointing (:mod:`repro.checkpoint`);
- a solver-agnostic resilience engine whose recurrence plugins (CG,
  BiCGstab, Jacobi-PCG) run under the ONLINE-DETECTION /
  ABFT-DETECTION / ABFT-CORRECTION schemes, with the one
  fault-tolerant entry point ``run_ft_method``
  (:mod:`repro.resilience`);
- the scheme descriptors, cost model and Chen's verification tests
  (:mod:`repro.core`);
- the abstract performance model with numerical interval optimization
  (:mod:`repro.model`);
- the paper's matrix suite and repeated fault-injected runs
  (:mod:`repro.sim`);
- a parallel, resumable experiment-campaign engine whose ``--jobs N``
  worker fleet is bit-identical to serial (:mod:`repro.campaign`);
  the paper's Table 1 and Figure 1 are its preset studies;
- pluggable campaign stores — single-file JSONL, hash-partitioned
  shards and WAL-mode SQLite behind one URL-selected protocol, with
  lossless migration and streaming aggregation over partial stores
  (:mod:`repro.store`);
- the zero-copy hot path: reusable solve workspaces with strike-undo
  matrix restore, holding what a solve derives from its matrix
  (checksums, ``‖A‖₁``, the trajectory memo) once per binding,
  bit-identical to a private workspace per solve (:mod:`repro.perf`);
- a kernel choice of two, selectable on every solve entry point: the
  bit-identical ``reference`` oracle and SciPy's compiled kernel for
  structure-clean products (:mod:`repro.backends`);
- structured tracing, process metrics and trace summaries — pure
  observation, zero overhead when off (:mod:`repro.obs`);
- adaptive sequential sampling: per-task repetitions stop once the
  Student-t confidence interval on the mean time is tight enough,
  with per-rep fault streams prefix-shared with fixed-count runs so
  stopping at ``k`` reps is bit-identical to the first ``k`` of a
  fixed run (:mod:`repro.adaptive`);
- the stable public API: the :func:`solve` facade, declarative
  :class:`Study` sweeps and the ``repro`` console script
  (:mod:`repro.api`).

Quickstart
----------
>>> from repro import laplacian_2d, solve, FaultSpec
>>> import numpy as np
>>> a = laplacian_2d(30)                      # 900x900 SPD matrix
>>> b = np.random.default_rng(0).standard_normal(a.nrows)
>>> report = solve(a, b, scheme="abft-correction",
...                faults=FaultSpec(alpha=0.05, seed=0))
>>> bool(report.converged)
True
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.sparse import (
        CSRMatrix,
        spmv,
        laplacian_2d,
        laplacian_3d,
        anisotropic_2d,
        random_spd,
        banded_spd,
        graph_laplacian_spd,
        stencil_spd,
    )
    from repro.abft import (
        compute_checksums,
        protected_spmv,
        SpmvStatus,
    )
    from repro.faults import FaultInjector, FaultModel
    from repro.checkpoint import CheckpointStore, PeriodicCheckpointPolicy
    from repro.core import Scheme, Method, SchemeConfig, CostModel
    from repro.resilience import run_ft_method
    from repro.model import (
        expected_frame_time,
        frame_overhead,
        optimal_interval,
        model_for_scheme,
    )
    from repro.api import (
        solve,
        SolveReport,
        FaultSpec,
        CheckpointSpec,
        Study,
    )
    from repro.obs import (
        InMemoryTracer,
        JsonlTracer,
        NullTracer,
        Tracer,
        summarize_trace,
    )
    from repro.perf import SolveWorkspace
    from repro.backends import available_backends, get_backend
    from repro.store import StoreBackend, available_store_schemes, open_store
    from repro.adaptive import SamplingPolicy

__version__ = "1.9.0"

__all__ = [
    "CSRMatrix",
    "spmv",
    "laplacian_2d",
    "laplacian_3d",
    "anisotropic_2d",
    "random_spd",
    "banded_spd",
    "graph_laplacian_spd",
    "stencil_spd",
    "compute_checksums",
    "protected_spmv",
    "SpmvStatus",
    "FaultInjector",
    "FaultModel",
    "CheckpointStore",
    "PeriodicCheckpointPolicy",
    "Scheme",
    "Method",
    "SchemeConfig",
    "CostModel",
    "run_ft_method",
    "expected_frame_time",
    "frame_overhead",
    "optimal_interval",
    "model_for_scheme",
    "solve",
    "SolveReport",
    "FaultSpec",
    "CheckpointSpec",
    "Study",
    "Tracer",
    "NullTracer",
    "InMemoryTracer",
    "JsonlTracer",
    "summarize_trace",
    "SolveWorkspace",
    "available_backends",
    "get_backend",
    "StoreBackend",
    "available_store_schemes",
    "open_store",
    "SamplingPolicy",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sparse": (
            "CSRMatrix",
            "spmv",
            "laplacian_2d",
            "laplacian_3d",
            "anisotropic_2d",
            "random_spd",
            "banded_spd",
            "graph_laplacian_spd",
            "stencil_spd",
        ),
        "repro.abft": (
            "compute_checksums",
            "protected_spmv",
            "SpmvStatus",
        ),
        "repro.faults": ("FaultInjector", "FaultModel"),
        "repro.checkpoint": ("CheckpointStore", "PeriodicCheckpointPolicy"),
        "repro.core": (
            "Scheme",
            "Method",
            "SchemeConfig",
            "CostModel",
        ),
        "repro.resilience": ("run_ft_method",),
        "repro.model": (
            "expected_frame_time",
            "frame_overhead",
            "optimal_interval",
            "model_for_scheme",
        ),
        "repro.api": ("solve", "SolveReport", "FaultSpec", "CheckpointSpec", "Study"),
        "repro.obs": (
            "InMemoryTracer",
            "JsonlTracer",
            "NullTracer",
            "Tracer",
            "summarize_trace",
        ),
        "repro.perf": ("SolveWorkspace",),
        "repro.backends": ("available_backends", "get_backend"),
        "repro.store": ("StoreBackend", "available_store_schemes", "open_store"),
        "repro.adaptive": ("SamplingPolicy",),
    },
)
