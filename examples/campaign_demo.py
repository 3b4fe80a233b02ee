#!/usr/bin/env python
"""Run a declarative study campaign: parallel fan-out, persistence, resume.

The paper's evaluation grid — (matrix × scheme × α × interval × rep) —
is embarrassingly parallel, and every repetition seeds its RNG from the
task's *identity*, never from execution order.  A :class:`repro.Study`
declares such a grid once; the campaign engine underneath fans tasks
over worker processes, persists each result to a JSONL store the moment
it lands, and resumes a killed campaign without recomputing a single
finished task.

Run:  python examples/campaign_demo.py
"""

import tempfile
import time
from pathlib import Path

from repro import Study
from repro.campaign import default_jobs, run_campaign
from repro.sim.results import format_table1
from repro.store import ResultStore


def main() -> None:
    # --- declare the grid: the paper's Table-1 preset ---------------------
    study = Study.table1(scale=48, reps=2, uids=[341, 2213], s_span=3)
    tasks = study.tasks()
    print(f"study {study.name!r}: {len(tasks)} tasks over {default_jobs()} worker(s)")

    workdir = Path(tempfile.mkdtemp())
    store_path = workdir / "table1.jsonl"

    # The spec itself is portable: export it, run it anywhere via
    #   repro study run table1_study.json --store table1.jsonl --jobs 4
    spec_path = workdir / "table1_study.json"
    study.save(spec_path)
    print(f"spec exported to {spec_path}")

    # --- simulate a crash: run only the first half, then "die" -----------
    half = tasks[: len(tasks) // 2]
    run_campaign(half, jobs=default_jobs(), store=ResultStore(store_path))
    done, still_pending = ResultStore(store_path).resume(tasks)
    print(f"interrupted: {len(done)} tasks safe in {store_path}, "
          f"{len(still_pending)} still pending")

    # --- resume: completed tasks come from the store, free -----------------
    t0 = time.perf_counter()
    result = study.run(jobs=default_jobs(), store=store_path, progress=True)
    print(f"resumed + finished in {time.perf_counter() - t0:.1f}s "
          f"({len(result)} tasks total)")

    # --- aggregate into the paper's Table-1 shape --------------------------
    print()
    print(format_table1(result.table1_rows()))
    print("equivalent CLI:  repro table1 --scale 48 --reps 2 "
          "--uids 341 2213 --jobs 4 --store table1.jsonl   # then --resume\n"
          f"inspect the store: repro report {store_path}")


if __name__ == "__main__":
    main()
