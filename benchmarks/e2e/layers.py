"""The traced pass: one workload run in-process, a span at each layer
boundary, then probes of each layer's public functions.

Run by ``run.py`` in a fresh child (cold caches, quiet environment)::

    python layers.py WORKLOAD BASE_SEED WORKDIR OUT.json [--untraced] [--smoke]

Spans are recorded by *this* file around its own calls into the layers
(compile → ``run_campaign`` → import probe → hash → resume → aggregate →
report → matrix build → probes), kept in memory and written to
``OUT.json`` at exit.  Below ``run_campaign`` the split comes from the
``kind="telemetry"`` record the executor already writes and from the
probes; shares derived from them are labelled ``_computed``.
``--untraced`` runs only compile + ``run_campaign`` with the recorder
off: the difference between the two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import ledger

#: Protected products per solver iteration (BiCGstab routes both A·p
#: and A·s through the ABFT layer).
PRODUCTS_PER_ITERATION = {"cg": 1, "pcg": 1, "bicgstab": 2}


class Spans:
    """In-memory span recorder: ``{name, start, end, parent, run_id}``,
    ``parent`` being the index of the enclosing span (None at the top)."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: "list[dict]" = []
        self._open: "list[int]" = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> "dict[str, float]":
        """Span duration minus the part its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return {s["name"]: t for s, t in zip(self.spans, own)}

    def coverage(self) -> float:
        """Share of the root span's wall its direct children cover."""
        root = self.spans[0]
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == 0
        )
        return covered / (root["end"] - root["start"])


def per_call(fn, *, min_time: float = 0.05, min_calls: int = 5) -> float:
    """Median seconds per call, after one warm-up call."""
    fn()
    samples = []
    stop = perf_counter() + min_time
    while len(samples) < min_calls or perf_counter() < stop:
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def last_level_cache_bytes() -> int:
    """Largest cache sysfs reports for cpu0 (32 MiB when it is silent)."""
    best = 0
    for size in pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1])
        best = max(best, int(text[:-1]) * unit if unit else int(text))
    return best or 32 << 20


def available_memory_bytes() -> int:
    for line in pathlib.Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) << 10
    return 1 << 30


def disk_bytes(path: "pathlib.Path") -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))


def import_seconds(repeats: int) -> float:
    """``import repro`` in a fresh interpreter, minus the interpreter."""

    def start(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return perf_counter() - t0

    return (statistics.median(start("import repro") for _ in range(repeats))
            - statistics.median(start("pass") for _ in range(repeats)))


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
class Pass:
    """One in-process run of a workload.  ``run()`` returns what
    ``OUT.json`` holds; ``m`` collects the per-layer metrics."""

    def __init__(self, wl: "ledger.Workload", base_seed: int, workdir: pathlib.Path,
                 *, traced: bool, smoke: bool) -> None:
        self.wl, self.workdir, self.traced, self.smoke = wl, workdir, traced, smoke
        self.spans = Spans(f"{wl.name}-{base_seed}", enabled=traced)
        self.spec = workdir / "spec.json"
        wl.study(base_seed, smoke=smoke).save(self.spec)
        self.url = wl.store_url(workdir)
        self.probe = functools.partial(per_call, min_time=0.01 if smoke else 0.05)
        self.m: "dict[str, float]" = {}
        self.out = {"workload": wl.name, "base_seed": base_seed, "traced": traced,
                    "metrics": self.m}

    def run(self) -> dict:
        from repro import Study
        from repro.campaign.executor import run_campaign

        spans, m, out = self.spans, self.m, self.out
        with spans.span("pass"):
            with spans.span("api.study.compile"):
                t0 = perf_counter()
                self.tasks = Study.load(self.spec).tasks()
                m["api.study.compile_s"] = perf_counter() - t0
            m["api.study.tasks"] = len(self.tasks)

            with spans.span("campaign.executor.run"):
                cpu0 = sum(os.times()[:4])
                t0 = perf_counter()
                run_campaign(self.tasks, jobs=self.wl.jobs, store=self.url, retries=1)
                m["campaign.executor.run_s"] = perf_counter() - t0
                m["campaign.executor.cpu_s"] = sum(os.times()[:4]) - cpu0
            if self.traced:
                self.facts = ledger.store_facts(self.url)
                out.update(digest=self.facts["digest"],
                           quarantined=self.facts["quarantined"],
                           quarantine_tasks=self.facts["quarantine_tasks"])
                self._read_side()
                self._telemetry_metrics()
                largest = self._build_matrices()
                with spans.span("probes"):
                    self._probe_kernels(largest)
                    self._probe_store()

        if self.traced:
            m["harness.span_coverage"] = spans.coverage()
            out["spans"] = spans.spans
            out["self_times_s"] = spans.self_times()
        return out

    def _read_side(self) -> None:
        """Import, hashing and everything that reads the finished store."""
        from repro.api.report import format_summary, summarize_store
        from repro.campaign import aggregate
        from repro.store import open_store

        spans, m, tasks, url = self.spans, self.m, self.tasks, self.url
        with spans.span("api.import"):
            m["api.import_s"] = import_seconds(1 if self.smoke else 3)

        with spans.span("campaign.spec.hash"):
            t0 = perf_counter()
            for t in tasks:
                t.task_hash()
            m["campaign.spec.hash_us"] = (perf_counter() - t0) / len(tasks) * 1e6

        with spans.span("store.resume"):
            t0 = perf_counter()
            _, pending = open_store(url).resume(tasks)
            m["store.resume_ms"] = (perf_counter() - t0) * 1e3
        self.out["resume_pending"] = len(pending)

        with spans.span("campaign.aggregate"):
            fold = {"table1": aggregate.aggregate_table1_store,
                    "figure1": aggregate.aggregate_figure1_store}.get(tasks[0].experiment)
            t0 = perf_counter()
            if fold is not None:
                fold(tasks, url, partial=True)
            m["campaign.aggregate_ms"] = (perf_counter() - t0) * 1e3 if fold else 0.0

        with spans.span("api.report.summarize"):
            t0 = perf_counter()
            self.out["report"] = format_summary(summarize_store(url))
            m["api.report.summarize_ms"] = (perf_counter() - t0) * 1e3

    def _build_matrices(self):
        """Cold build of the workload's matrices; returns the largest."""
        from repro.sim.matrices import clear_matrix_cache, get_matrix

        matrices = sorted({(t.uid, t.scale) for t in self.tasks})
        with self.spans.span("sim.matrices.build"):
            clear_matrix_cache()
            t0 = perf_counter()
            built = [get_matrix(uid, scale) for uid, scale in matrices]
            self.m["sim.matrices.build_s"] = perf_counter() - t0
        a = max(built, key=lambda mat: mat.nnz)
        self.out["probe_matrix"] = {"uid": matrices[built.index(a)][0],
                                    "n": a.nrows, "nnz": a.nnz}
        return a

    def _telemetry_metrics(self) -> None:
        """The split below ``run_campaign``, from the executor's own record."""
        m, tasks = self.m, self.tasks
        tele = self.facts["telemetry"][-1]
        c, timers = tele["counters"], tele["timers"]
        n = len(tasks)
        run_s = m["campaign.executor.run_s"]
        task_s = timers["campaign.task_s"]["total"]
        solve = timers["engine.solve_wall_s"]
        reps = c["engine.solves"]

        def rate(hit: str, miss: str) -> float:
            total = c.get(hit, 0) + c.get(miss, 0)
            return c.get(hit, 0) / total if total else 0.0

        overhead_s = run_s - task_s / tele["workers"]
        m["campaign.executor.overhead_ms_per_task"] = overhead_s / n * 1e3
        m["campaign.executor.overhead_share"] = overhead_s / run_s
        m["campaign.executor.parallel_eff"] = task_s / (self.wl.jobs * run_s)
        m["campaign.executor.tasks_per_s"] = n / run_s
        m["campaign.executor.retries"] = c.get("harness.retries", 0)
        m["campaign.executor.quarantined"] = c.get("harness.quarantined", 0)
        m["sim.engine.rep_overhead_us"] = (task_s - solve["total"]) / reps * 1e6
        m["sim.engine.reps"] = reps
        m["resilience.solve_ms"] = solve["total"] / solve["count"] * 1e3
        m["resilience.iter_us"] = solve["total"] / c["engine.iterations_executed"] * 1e6
        for name in ("faults_injected", "detections", "corrections", "rollbacks",
                     "checkpoints"):
            m[f"resilience.{name}"] = c.get(f"engine.{name}", 0)
        m["resilience.iterations"] = c["engine.iterations_executed"]
        useful = c.get("engine.time_units.useful", 0.0)
        wasted = c.get("engine.time_units.wasted", 0.0)
        m["resilience.wasted_share"] = wasted / (useful + wasted)
        m["abft.checksum_cache_hit_rate"] = rate("abft.checksum_cache.hit",
                                                 "abft.checksum_cache.miss")
        corrected = c.get("abft.corrected", 0)
        flagged = corrected + c.get("abft.uncorrectable", 0)
        m["abft.corrected_share"] = corrected / flagged if flagged else 0.0
        m["perf.workspace.buffer_reuse_rate"] = 1.0 - (
            c.get("workspace.buffer_allocs", 0) / c["workspace.buffer_requests"])
        m["perf.workspace.live_restore_rate"] = rate("workspace.live_restore",
                                                     "workspace.live_copy")
        m["store.partials"] = self.facts["partials"]
        m["adaptive.reps_executed"] = c.get("adaptive.reps", 0)
        cap = sum(t.reps for t in tasks if t.sampling)
        m["adaptive.reps_saved_share"] = c.get("adaptive.reps_saved", 0) / cap if cap else 0.0

    def _probe_kernels(self, a) -> None:
        """Kernel, ABFT, fault, checkpoint and solve probes on the
        workload's largest matrix, its first method and backend, at its
        median fault rate."""
        import numpy as np

        from repro.abft.checksums import compute_checksums
        from repro.abft.spmv import SpmvStatus, protected_spmv
        from repro.adaptive import SamplingPolicy
        from repro.backends import get_backend
        from repro.checkpoint.store import CheckpointStore
        from repro.core.methods import CostModel, Scheme, SchemeConfig
        from repro.faults.injector import FaultInjector, FaultModel
        from repro.perf import SolveWorkspace
        from repro.resilience.registry import run_ft_method
        from repro.sim.engine import make_rhs
        from repro.sparse.spmv import spmv

        spans, m, out, probe = self.spans, self.m, self.out, self.probe
        task = self.tasks[0]
        alpha = sorted(t.alpha for t in self.tasks)[len(self.tasks) // 2]
        n, nnz = a.nrows, a.nnz
        x = make_rhs(a)
        y, scratch = np.empty(n), np.empty(nnz)
        clean = a.copy()  # suite matrices are valid by construction
        clean.assume_clean_structure()

        with spans.span("probe.sparse"):
            spmv_s = probe(lambda: spmv(clean, x, out=y, scratch=scratch))
            guarded = a.copy()
            injector = FaultInjector(FaultModel(alpha, guarded.memory_words), rng=0)
            injector.register("colid", guarded.colid)
            injector.inject_at(0, "colid", nnz // 2, 0)
            guarded.mark_structure_dirty()
            m["sparse.spmv_us"] = spmv_s * 1e6
            m["sparse.spmv_guarded_us"] = probe(
                lambda: spmv(guarded, x, out=y, scratch=scratch)) * 1e6
            # val + colid + rowidx read once, x gathered once, y written once.
            moved = 8 * (2 * nnz + (n + 1) + 2 * n)
            m["sparse.spmv_gbps_computed"] = moved / spmv_s / 1e9
            backend = get_backend(task.backend)
            backend_s = probe(lambda: backend.spmv(clean, x, out=y, scratch=scratch))
            m["backends.spmv_us"] = backend_s * 1e6

        with spans.span("probe.host_copy"):
            # At least 4x the last-level cache, so the copy streams from
            # memory; first touch of ~1 GiB costs seconds, hence not in smoke.
            llc = last_level_cache_bytes()
            size = 8 << 20 if self.smoke else min(max(4 * llc, 64 << 20),
                                                  available_memory_bytes() // 8)
            src, dst = np.ones(size // 8), np.empty(size // 8)
            m["host.copy_gbps"] = 2 * src.nbytes / probe(
                lambda: np.copyto(dst, src), min_calls=3) / 1e9
            out["host_copy"] = {"array_bytes": src.nbytes, "llc_bytes": llc}
            del src, dst

        with spans.span("probe.abft"):
            m["abft.checksums.setup_ms"] = probe(
                lambda: compute_checksums(a), min_calls=3) * 1e3
            cks = compute_checksums(a)
            protect = dict(workspace=SolveWorkspace(), trust_structure_stamp=True,
                           backend=backend)
            protected_s = probe(
                lambda: protected_spmv(clean, x, cks, correct=True, **protect))
            m["abft.protected_spmv_us"] = protected_s * 1e6
            m["abft.detect_spmv_us"] = probe(
                lambda: protected_spmv(clean, x, cks, correct=False, **protect)) * 1e6
            m["abft.verify_overhead_x"] = protected_s / spmv_s

            live = a.copy()
            live.assume_clean_structure()
            flips = FaultInjector(FaultModel(alpha, live.memory_words), rng=0)
            flips.register("val", live.val)

            def flip_and_correct():
                flips.inject_at(0, "val", nnz // 2, 51)
                status = protected_spmv(live, x, cks, correct=True, **protect).status
                if status is not SpmvStatus.CORRECTED:
                    raise RuntimeError(f"probe flip was {status.value}, not corrected")

            m["abft.correct_us"] = probe(flip_and_correct) * 1e6

        with spans.span("probe.faults"):
            strikes = FaultInjector(FaultModel(alpha, a.memory_words + 3 * n), rng=0)
            struck = a.copy()
            for name in ("val", "colid", "rowidx"):
                strikes.register(name, getattr(struck, name))
            for name in ("x", "r", "p"):
                strikes.register(name, np.zeros(n))
            m["faults.sample_us"] = probe(strikes.sample_strikes) * 1e6
            m["faults.apply_revert_us"] = probe(
                lambda: strikes.revert(strikes.inject_at(0, "val", nnz // 2, 51))) * 1e6

        with spans.span("probe.checkpoint"):
            cps = CheckpointStore(keep=1, recycle=True)
            vectors = {"x": x, "r": y, "p": np.zeros(n)}
            m["checkpoint.save_us"] = probe(
                lambda: cps.save(0, vectors, matrix=clean)) * 1e6
            m["checkpoint.restore_us"] = probe(cps.restore) * 1e6

        with spans.span("probe.solve"):
            cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=16,
                               costs=CostModel.from_matrix(a))
            solve_ws = SolveWorkspace()

            def solve():
                t0 = perf_counter()
                res = run_ft_method(task.method, a, x, cfg, alpha=0.0, eps=task.eps,
                                    workspace=solve_ws, backend=task.backend)
                return perf_counter() - t0, res.iterations_executed

            solve()  # fills the checksum cache and the workspace
            wall, iterations = min(solve() for _ in range(3))
            products = iterations * PRODUCTS_PER_ITERATION[task.method]
            m["resilience.kernel_share_computed"] = products * backend_s / wall
            m["resilience.abft_share_computed"] = (
                products * (protected_s - backend_s) / wall)
            m["resilience.step_overhead_us"] = (
                (wall - products * protected_s) / iterations * 1e6)
            out["probe_solve"] = {"wall_s": wall, "iterations": iterations,
                                  "method": task.method, "backend": task.backend}

        with spans.span("probe.adaptive"):
            policy = SamplingPolicy.parse(
                task.sampling or "ci=0.05,conf=0.95,min=4,max=40")
            m["adaptive.should_stop_us"] = probe(
                lambda: policy.should_stop(policy.min_reps + 6, 100.0, 20.0)) * 1e6

    def _probe_store(self) -> None:
        """Store probes: the run's real records through the real backend."""
        from repro.store import open_store
        from repro.store.integrity import check_record, seal_record

        m, probe = self.m, self.probe
        with self.spans.span("probe.store"):
            t0 = perf_counter()
            records = list(open_store(self.url).iter_records())
            m["store.iter_us"] = (perf_counter() - t0) / len(records) * 1e6
            m["store.bytes_per_record"] = disk_bytes(
                pathlib.Path(open_store(self.url).path)) / len(records)

            replay_dir = self.workdir / "replay"
            replay_dir.mkdir()
            replay = open_store(self.wl.store_url(replay_dir))
            t0 = perf_counter()
            for rec in records:
                replay.append(rec)
            m["store.append_us"] = (perf_counter() - t0) / len(records) * 1e6
            replay.close()

            result = next(r for r in records if r.get("kind") is None)
            sealed = seal_record(result)
            m["store.integrity.seal_us"] = probe(lambda: seal_record(result)) * 1e6
            m["store.integrity.check_us"] = probe(lambda: check_record(sealed)) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(ledger.WORKLOADS))
    ap.add_argument("base_seed", type=int)
    ap.add_argument("workdir", type=pathlib.Path)
    ap.add_argument("out", type=pathlib.Path)
    ap.add_argument("--untraced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    ledger.use_repo_source()
    args.workdir.mkdir(parents=True)
    result = Pass(ledger.WORKLOADS[args.workload], args.base_seed, args.workdir,
                  traced=not args.untraced, smoke=args.smoke).run()
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
