#!/usr/bin/env python
"""Serve a campaign through a lease-coordinated worker fleet.

``repro serve`` is the third way to run a campaign, after ``--jobs``
fan-out and ``--resume``: a dispatcher plus N long-lived workers that
*claim* pending tasks from a shared concurrent store (``sharded:dir``
or ``sqlite:file.db``) via leases with heartbeats.  A worker that dies
mid-task simply stops heartbeating; once the lease TTL passes, a peer
steals the task and reruns it.  Leases are advisory — records are
idempotent by content hash — so per-task results are **identical to
--jobs 1**, which this demo verifies, crash included.

Run:  python examples/serve_demo.py
"""

import tempfile
from pathlib import Path

from repro import Study
from repro.campaign import run_campaign, serve_campaign
from repro.store import migrate_store, open_store


def main() -> None:
    study = Study.table1(scale=48, reps=2, uids=[2213], s_span=2)
    tasks = study.tasks()
    workdir = Path(tempfile.mkdtemp())

    # --- the baseline every other execution mode must reproduce -----------
    baseline = run_campaign(tasks, jobs=1)

    # --- a fleet of three workers over a sharded store --------------------
    # Each record routes to the shard its content hash selects, so the
    # workers rarely touch the same file; each shard keeps the JSONL
    # torn-tail crash contract individually.
    url = f"sharded:{workdir / 'fleet.d'}"
    print(f"serving {len(tasks)} tasks over 3 workers -> {url}")
    records = serve_campaign(tasks, url, workers=3, lease_ttl=30.0)
    assert records == baseline  # bit-identical, scheduling-independent
    print("fleet results are bit-identical to jobs=1")

    # --- crash tolerance: a stale lease from a "dead" worker --------------
    # Claim one task on behalf of a worker that will never heartbeat,
    # with a short TTL.  The fleet waits the TTL out, steals the lease,
    # and still completes everything.
    url2 = f"sqlite:{workdir / 'fleet.db'}"
    store = open_store(url2)
    victim = tasks[0].task_hash()
    store.try_claim(victim, "pid-dead-00000000", ttl=1.0)
    print(f"lease on {victim[:16]}… held by a dead worker (ttl 1s)")
    records = serve_campaign(tasks, url2, workers=2, lease_ttl=1.0)
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
