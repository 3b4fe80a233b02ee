#!/usr/bin/env python
"""Serve a campaign through a lease-coordinated dispatcher.

``repro serve`` is ``--jobs N`` in lease mode
(``run_campaign(lease_ttl=...)``): the same dispatcher and worker
fleet, except that the dispatcher first *claims* each task in a shared
store's lease board (``sqlite:file.db``, the shipped backend with
one), heartbeats it while a worker runs it, and
releases it once the record is appended.  So several dispatchers may
share one store: a task a peer holds is left to the peer, and a
dispatcher that dies stops heartbeating, so once its lease TTL passes
a peer steals the task and reruns it.  Leases are advisory — records
are idempotent by content hash — so per-task results are **identical
to --jobs 1**, which this demo verifies, crash included.

Run:  python examples/serve_demo.py
"""

import tempfile
from pathlib import Path

from repro import Study
from repro.campaign import run_campaign
from repro.store import migrate_store, open_store


def main() -> None:
    study = Study.table1(scale=48, reps=2, uids=[2213], s_span=2)
    tasks = study.tasks()
    workdir = Path(tempfile.mkdtemp())

    # --- the baseline every other execution mode must reproduce -----------
    baseline = run_campaign(tasks, jobs=1)

    # --- a fleet of three workers over a SQLite store ---------------------
    # Every append is one committed transaction and the store's leases
    # table is the lease board, so several dispatchers may share it.
    url = f"sqlite:{workdir / 'fleet.db'}"
    print(f"serving {len(tasks)} tasks over 3 workers -> {url}")
    records = run_campaign(tasks, jobs=3, store=url, lease_ttl=30.0)
    assert records == baseline  # bit-identical, scheduling-independent
    print("fleet results are bit-identical to jobs=1")

    # --- crash tolerance: a stale lease from a "dead" dispatcher ----------
    # Claim one task on behalf of a dispatcher that will never
    # heartbeat, with a short TTL.  The live dispatcher defers the task,
    # steals the lease once the TTL is out, and completes everything.
    url2 = f"sqlite:{workdir / 'stolen.db'}"
    store = open_store(url2)
    victim = tasks[0].task_hash()
    store.try_claim(victim, "pid-dead-00000000", ttl=1.0)
    print(f"lease on {victim[:16]}… held by a dead dispatcher (ttl 1s)")
    records = run_campaign(tasks, jobs=2, store=url2, lease_ttl=1.0)
    assert records == baseline
    print("stolen and completed: still bit-identical")

    # --- stores migrate without losing resume ------------------------------
    back = workdir / "fleet.jsonl"
    moved = migrate_store(url2, back)
    done, pending = open_store(back).resume(tasks)
    print(f"migrated {moved} records sqlite -> jsonl; "
          f"resume sees {len(done)} done, {len(pending)} pending")
    assert not pending

    print(f"\nequivalent CLI:\n"
          f"  repro serve spec.json --store {url} --workers 3\n"
          f"  repro store info {url}\n"
          f"  repro store migrate {url2} {back}")


if __name__ == "__main__":
    main()
