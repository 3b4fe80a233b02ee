"""Declarations and shared helpers of the campaign-ledger benchmark.

What is measured lives here as data — the four workloads, the
end-to-end metrics with their regression bounds, the per-layer metrics
with the end-to-end metric and workload each is expected to move — so
``run.py``, ``layers.py``, ``compare.py`` and the self-tests agree on
one list.  ``BENCHMARK.json`` at the repo root is the committed
projection of these declarations (``test_e2e_harness.py`` checks the
two stay in step).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import statistics
import sys
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
RESULTS = HERE / "results"
POOL_FILE = HERE / "workloads.json"

#: BLAS/OpenMP pins every measured process runs under: unpinned BLAS on 2 shared
#: cores makes the paper-scale workload slower *and* unrepeatable.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def use_repo_source() -> None:
    """Quiet this process (children inherit it) and make ``import repro``
    resolve to this checkout: thread pins, ``src/`` on the path, a fixed
    hash seed, and none of the variables that silently change what a
    campaign does.  Call before NumPy is first imported: the pins are
    read at import."""
    for key in list(os.environ):
        if key in ("REPRO_CHAOS", "REPRO_MATRIX_DIR") or key.startswith("REPRO_BENCH_"):
            del os.environ[key]
    os.environ.update(THREAD_PINS, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One spec-in → report-out campaign shape."""

    name: str
    store: str  #: store scheme: jsonl (bare path), sqlite, sharded
    jobs: int
    why: str

    def store_url(self, workdir: "pathlib.Path") -> str:
        if self.store == "jsonl":
            return str(workdir / "store.jsonl")
        suffix = {"sqlite": "db", "sharded": "d"}[self.store]
        return f"{self.store}:{workdir / ('store.' + suffix)}"

    def study(self, base_seed: int, *, smoke: bool = False):
        """The workload's :class:`repro.Study` at ``base_seed``.

        ``smoke`` shrinks every workload to one uid, ``scale=128``,
        ``reps=1`` — same code paths, a second of work — for the
        self-tests.
        """
        from repro import Study
        from repro.sim.matrices import PAPER_SUITE

        small = dict(scale=128, reps=1, uids=[2213]) if smoke else {}
        if self.name == "t1_small":
            kw = dict(scale=32, reps=4, uids=[2213, 341, 1312])
            return Study.table1(**{**kw, **small}, base_seed=base_seed)
        if self.name == "f1_large":
            kw = dict(scale=1, reps=1, uids=[2213])
            return Study.figure1(**{**kw, **small}, mtbf_values=[16.0, 1e2, 1e3, 1e4],
                                 base_seed=base_seed)
        if self.name == "adaptive_mix":
            kw = dict(scale=32, uids=[1312, 2213, 1311])
            small.pop("reps", None)  # the sampling policy owns the rep count
            return Study.figure1(
                **{**kw, **small},
                methods=["cg", "bicgstab", "pcg"],
                backend="scipy",
                sampling=("ci=0.2,conf=0.9,min=2,max=4,batch=2" if smoke
                          else "ci=0.05,conf=0.95,min=4,max=40,batch=4"),
                base_seed=base_seed,
            )
        assert self.name == "grid_store", self.name
        uids = [2213] if smoke else [m.uid for m in PAPER_SUITE]
        return (
            Study("grid")
            .axis("uid", uids)
            .axis("method", ["cg", "bicgstab", "pcg"])
            .axis("scheme", ["abft-detection", "abft-correction"])
            .axis("mtbf", [16 * 2**k for k in range(4 if smoke else 12)])
            .axis("s", range(1, 5 if smoke else 9))
            .fix(scale=128, reps=1, eps=0.03, d=1, base_seed=base_seed)
        )


WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            "t1_small", "jsonl", 1,
            "Table-1 interval sweep at n~600-1250: per-iteration Python overhead "
            "(verify, plugin step, engine loop, strike sampling) dominates, not the kernel",
        ),
        Workload(
            "f1_large", "jsonl", 1,
            "Figure-1 grid on the paper-scale matrix (n=19881, nnz=488601): SpMxV, ABFT "
            "products and 0.5M-nnz checkpoints dominate; executor and store do ~nothing",
        ),
        Workload(
            "grid_store", "sqlite", 2,
            "thousands of one-solve tasks of ~2 iterations: compile/hash, dispatch, record "
            "build, append+seal and (on resume) store scan and aggregation are the work",
        ),
        Workload(
            "adaptive_mix", "sharded", 2,
            "the other code paths: batched adaptive rep loop with partial checkpoints, "
            "BiCGstab/PCG plugins, scipy backend dispatch, lease-capable sharded store",
        ),
    )
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
#: End-to-end metrics, the same on every workload.  ``bound`` is the
#: share of the parent's median by which the metric may worsen.
END_TO_END = [
    dict(name="campaign_wall_s", unit="s", better="lower", bound=0.25,
         definition="wall of the `study run` subprocess on a fresh store plus the "
                    "`report` subprocess: spec file in, report text out, interpreter "
                    "start included"),
    dict(name="reps_per_s", unit="reps/s", better="higher", bound=0.25,
         definition="protected solves in settled result records (stats.reps summed) "
                    "divided by campaign_wall_s"),
    dict(name="setup_s", unit="s", better="lower", bound=0.25,
         definition="wall of `study run SPEC --dry-run`: interpreter, import repro, "
                    "spec compile and task hashing, everything before the first task"),
    dict(name="resume_wall_s", unit="s", better="lower", bound=0.25,
         definition="`study run --resume` against the finished store (executes zero "
                    "tasks) plus `report`: the read side of executor, store, aggregate"),
    dict(name="peak_rss_mb", unit="MiB", better="lower", bound=0.05,
         definition="ru_maxrss of the `study run` child, the larger of it and its "
                    "reaped pool workers"),
]


def _layer(name, unit, better, moves, flat_on, definition):
    return dict(name=name, unit=unit, better=better, moves=moves,
                flat_on=flat_on, definition=definition)


#: Per-layer metrics (layer = first dotted component = module name).
#: ``moves`` names the end-to-end metric and workload the layer metric
#: should move; ``flat_on`` the workload where the prediction is no
#: change ("" when the metric is a guard rail with no such contrast).
PER_LAYER = [
    _layer("api.import_s", "s", "lower", "setup_s@t1_small", "f1_large",
           "`python -c 'import repro'` minus a bare interpreter start"),
    _layer("api.study.compile_s", "s", "lower", "setup_s@grid_store", "t1_small",
           "Study.load(spec).tasks()"),
    _layer("api.study.tasks", "count", "higher", "setup_s@grid_store", "",
           "tasks the spec compiles to (exact)"),
    _layer("api.report.summarize_ms", "ms", "lower", "resume_wall_s@grid_store", "f1_large",
           "summarize_store + format_summary on the finished store"),
    _layer("campaign.spec.hash_us", "us", "lower", "setup_s@grid_store", "f1_large",
           "mean TaskSpec.task_hash()"),
    _layer("campaign.executor.run_s", "s", "lower", "campaign_wall_s@grid_store", "",
           "span around run_campaign(tasks, jobs, store, retries=1)"),
    _layer("campaign.executor.overhead_ms_per_task", "ms", "lower",
           "campaign_wall_s@grid_store", "f1_large",
           "(run_s - sum(campaign.task_s)/workers) / tasks: dispatch, pickling, "
           "record build, append"),
    _layer("campaign.executor.overhead_share", "ratio", "lower",
           "campaign_wall_s@grid_store", "f1_large",
           "overhead_ms_per_task * tasks / run_s"),
    _layer("campaign.executor.parallel_eff", "ratio", "higher",
           "campaign_wall_s@adaptive_mix", "t1_small",
           "sum(campaign.task_s) / (jobs * run_s)"),
    _layer("campaign.executor.tasks_per_s", "1/s", "higher", "reps_per_s@grid_store",
           "f1_large", "tasks / run_s"),
    _layer("campaign.executor.cpu_s", "s", "lower", "campaign_wall_s@adaptive_mix", "",
           "user+system CPU of the traced pass and its workers during run_campaign"),
    _layer("campaign.executor.retries", "count", "lower", "campaign_wall_s@t1_small", "",
           "telemetry harness.retries (exact)"),
    _layer("campaign.executor.quarantined", "count", "lower", "campaign_wall_s@t1_small", "",
           "telemetry harness.quarantined (exact)"),
    _layer("campaign.aggregate_ms", "ms", "lower", "resume_wall_s@t1_small", "grid_store",
           "aggregate_table1_store / aggregate_figure1_store; 0 on the generic grid, "
           "which has no preset fold"),
    _layer("sim.matrices.build_s", "s", "lower", "campaign_wall_s@f1_large", "t1_small",
           "cold get_matrix summed over the workload's distinct matrices"),
    _layer("sim.engine.rep_overhead_us", "us", "lower", "campaign_wall_s@grid_store",
           "f1_large",
           "(sum(campaign.task_s) - sum(engine.solve_wall_s)) / reps: seed spawn, "
           "workspace restore, stats push"),
    _layer("sim.engine.reps", "count", "higher", "reps_per_s@adaptive_mix", "",
           "solves executed (exact)"),
    _layer("resilience.solve_ms", "ms", "lower", "campaign_wall_s@f1_large", "grid_store",
           "telemetry engine.solve_wall_s total / count"),
    _layer("resilience.iter_us", "us", "lower", "campaign_wall_s@t1_small", "grid_store",
           "engine.solve_wall_s total / engine.iterations_executed"),
    _layer("resilience.kernel_share_computed", "ratio", "lower",
           "campaign_wall_s@f1_large", "t1_small",
           "probe solve: iterations * products/iter * backends.spmv_us / probe wall"),
    _layer("resilience.abft_share_computed", "ratio", "lower",
           "campaign_wall_s@f1_large", "grid_store",
           "probe solve: iterations * products/iter * (abft.protected_spmv_us - "
           "backends.spmv_us) / probe wall"),
    _layer("resilience.step_overhead_us", "us", "lower", "campaign_wall_s@t1_small",
           "f1_large",
           "probe solve: per-iteration remainder after the protected products "
           "(engine loop, plugin vector ops, strike routing, checkpoints)"),
    _layer("resilience.iterations", "count", "lower", "campaign_wall_s@t1_small", "",
           "telemetry engine.iterations_executed (exact)"),
    _layer("resilience.faults_injected", "count", "lower", "campaign_wall_s@t1_small", "",
           "telemetry engine.faults_injected (exact)"),
    _layer("resilience.detections", "count", "lower", "campaign_wall_s@t1_small", "",
           "telemetry engine.detections (exact)"),
    _layer("resilience.corrections", "count", "higher", "campaign_wall_s@t1_small", "",
           "telemetry engine.corrections (exact)"),
    _layer("resilience.rollbacks", "count", "lower", "campaign_wall_s@t1_small", "",
           "telemetry engine.rollbacks (exact)"),
    _layer("resilience.checkpoints", "count", "lower", "campaign_wall_s@f1_large", "",
           "telemetry engine.checkpoints (exact)"),
    _layer("resilience.wasted_share", "ratio", "lower", "campaign_wall_s@t1_small",
           "grid_store",
           "time_units.wasted / (useful + wasted): work thrown away by backward recovery"),
    _layer("abft.checksums.setup_ms", "ms", "lower", "campaign_wall_s@f1_large",
           "grid_store", "compute_checksums on the probe matrix"),
    _layer("abft.protected_spmv_us", "us", "lower", "campaign_wall_s@f1_large",
           "grid_store", "protected_spmv(correct=True) on a clean matrix"),
    _layer("abft.detect_spmv_us", "us", "lower", "campaign_wall_s@f1_large", "grid_store",
           "protected_spmv(correct=False) on a clean matrix"),
    _layer("abft.verify_overhead_x", "x", "lower", "campaign_wall_s@f1_large",
           "grid_store", "abft.protected_spmv_us / sparse.spmv_us"),
    _layer("abft.correct_us", "us", "lower", "campaign_wall_s@t1_small", "grid_store",
           "a protected product that localises and corrects one injected val flip"),
    _layer("abft.checksum_cache_hit_rate", "ratio", "higher", "campaign_wall_s@f1_large",
           "", "telemetry abft.checksum_cache hit / (hit + miss)"),
    _layer("abft.corrected_share", "ratio", "higher", "campaign_wall_s@t1_small", "",
           "telemetry abft.corrected / (abft.corrected + abft.uncorrectable): flagged "
           "products that forward recovery repaired"),
    _layer("sparse.spmv_us", "us", "lower", "campaign_wall_s@f1_large", "grid_store",
           "reference spmv(a, x, out=) on the structure-clean probe matrix"),
    _layer("sparse.spmv_guarded_us", "us", "lower", "campaign_wall_s@t1_small",
           "grid_store", "same product with the structure stamp cleared by a colid strike"),
    _layer("sparse.spmv_gbps_computed", "GB/s", "higher", "reps_per_s@f1_large",
           "grid_store", "bytes computed from array sizes / sparse.spmv_us"),
    _layer("backends.spmv_us", "us", "lower", "campaign_wall_s@adaptive_mix", "grid_store",
           "the workload's backend via get_backend(name).spmv"),
    _layer("host.copy_gbps", "GB/s", "higher", "reps_per_s@f1_large", "",
           "NumPy copy of an array at least 4x the last-level cache, same run"),
    _layer("faults.sample_us", "us", "lower", "campaign_wall_s@t1_small", "f1_large",
           "strikes_per_iteration + sample_strikes at the workload's median alpha"),
    _layer("faults.apply_revert_us", "us", "lower", "campaign_wall_s@t1_small", "f1_large",
           "inject_at + revert of one bit"),
    _layer("checkpoint.save_us", "us", "lower", "campaign_wall_s@f1_large", "grid_store",
           "CheckpointStore.save of matrix + three vectors at the probe size"),
    _layer("checkpoint.restore_us", "us", "lower", "campaign_wall_s@f1_large", "grid_store",
           "CheckpointStore.restore of the same state"),
    _layer("perf.workspace.buffer_reuse_rate", "ratio", "higher",
           "campaign_wall_s@t1_small", "", "1 - buffer_allocs / buffer_requests"),
    _layer("perf.workspace.live_restore_rate", "ratio", "higher",
           "campaign_wall_s@t1_small", "", "live_restore / (live_restore + live_copy)"),
    _layer("store.append_us", "us", "lower", "campaign_wall_s@grid_store", "f1_large",
           "the run's records replayed through open_store(URL).append, seal included"),
    _layer("store.iter_us", "us", "lower", "resume_wall_s@grid_store", "f1_large",
           "per record, iter_records over the finished store"),
    _layer("store.resume_ms", "ms", "lower", "resume_wall_s@grid_store", "f1_large",
           "store.resume(tasks) on the finished store"),
    _layer("store.bytes_per_record", "B", "lower", "resume_wall_s@grid_store", "",
           "store size on disk / records"),
    _layer("store.integrity.seal_us", "us", "lower", "campaign_wall_s@grid_store",
           "f1_large", "seal_record on a result record"),
    _layer("store.integrity.check_us", "us", "lower", "resume_wall_s@grid_store",
           "f1_large", "check_record on a sealed result record"),
    _layer("store.partials", "count", "lower", "campaign_wall_s@adaptive_mix", "",
           "kind=partial appends made by the run (exact)"),
    _layer("adaptive.should_stop_us", "us", "lower", "campaign_wall_s@adaptive_mix",
           "t1_small", "SamplingPolicy.should_stop past min reps (t-quantile evaluated)"),
    _layer("adaptive.reps_executed", "count", "lower", "campaign_wall_s@adaptive_mix", "",
           "telemetry adaptive.reps; 0 on fixed-count workloads (exact)"),
    _layer("adaptive.reps_saved_share", "ratio", "higher", "campaign_wall_s@adaptive_mix",
           "", "reps the stopping rule did not need / rep cap; 0 on fixed-count workloads"),
    _layer("harness.trace_overhead_pct", "%", "lower", "campaign_wall_s@t1_small", "",
           "run_campaign inside the traced pass vs the same call in an untraced pass"),
    _layer("harness.span_coverage", "ratio", "higher", "campaign_wall_s@t1_small", "",
           "top-level spans / wall of the traced pass"),
]


def benchmark_json(run_seconds: int) -> dict:
    """The contract file at the repo root, derived from the declarations."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


# ----------------------------------------------------------------------
# inputs: the screened seed pool
# ----------------------------------------------------------------------
def load_pool(workload: str) -> "dict[int, str]":
    """The workload's screened campaign base seeds, each with the
    records digest committed for it.

    Screened at the commit that defined the benchmark: on each, every
    task of the workload settles (none is quarantined), so no operation
    fails and each cycle's statistics can be checked bit for bit.
    """
    with open(POOL_FILE) as fh:
        entries = json.load(fh)["workloads"][workload]["pool"]
    return {e["base_seed"]: e["digest"] for e in entries}


def base_seeds(pool: "dict[int, str]", seed: int) -> "list[int]":
    """The base seeds ``--seed`` stands for, in cycle order: the pool,
    shuffled by ``seed``.  The same seed always gives the same order."""
    return random.Random(seed).sample(sorted(pool), len(pool))


# ----------------------------------------------------------------------
# outputs: the records digest
# ----------------------------------------------------------------------
def records_digest(records) -> str:
    """sha256 over sorted ``(hash, canonical stats JSON)`` of the
    settled result records, quarantines as ``(hash, "quarantine")``.

    Telemetry and partial records are bookkeeping, not results; a
    repeated hash folds last-wins like every store reader.  The digest
    is independent of record order, store backend and worker count —
    the simulated statistics are the house bit-identity contract.
    """
    latest: "dict[str, str]" = {}
    for rec in records:
        kind = rec.get("kind")
        if kind == "quarantine":
            latest[rec["hash"]] = "quarantine"
        elif kind is None:
            latest[rec["hash"]] = json.dumps(
                rec["stats"], sort_keys=True, separators=(",", ":")
            )
    h = hashlib.sha256()
    for key in sorted(latest):
        h.update(key.encode())
        h.update(b"\0")
        h.update(latest[key].encode())
        h.update(b"\n")
    return h.hexdigest()


def store_facts(url: str) -> dict:
    """One pass over a store: what the output checks need."""
    from repro.store import open_store

    records = list(open_store(url).iter_records())
    settled = [r for r in records if r.get("kind") is None]
    quarantined = [r for r in records if r.get("kind") == "quarantine"]
    return {
        "raw_records": len(records),
        "settled": len({r["hash"] for r in settled}),
        "quarantined": len({r["hash"] for r in quarantined}),
        "quarantine_tasks": [
            {"task": r.get("task"), "error": r.get("error")} for r in quarantined
        ],
        "reps": sum(r["stats"]["reps"] for r in settled),
        "partials": sum(1 for r in records if r.get("kind") == "partial"),
        "digest": records_digest(records),
        "telemetry": [r for r in records if r.get("kind") == "telemetry"],
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
