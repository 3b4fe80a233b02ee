"""One execution chain, many schedulers.

A campaign task runs in exactly one place — ``run_task → run_guarded →
execute_task → repeat loop`` — and the serial loop and the worker
fleet (``--jobs N``) differ only in who calls ``run_task``.  These tests
pin the invariant that makes that merge safe (every scheduler, armed or
not, produces the same records *and* does the same amount of work) and
keep the single path single at the source level.
"""

import ast
import threading
import warnings
from pathlib import Path

import pytest

import repro
from repro.campaign import CampaignSpec, run_campaign
from repro.chaos import harness
from repro.store import open_store

SRC = Path(repro.__file__).parent

#: Telemetry counters every scheduler must total identically.
CONSERVED = (
    "campaign.tasks",
    "engine.solves",
    "engine.iterations_executed",
    "adaptive.reps",
    "adaptive.tasks",
    "adaptive.reps_saved",
)

SCHEDULERS = {
    "serial": dict(jobs=1),
    "serial-retry": dict(jobs=1, retries=1),
    "pool": dict(jobs=2),
    "pool-hardened": dict(jobs=2, retries=1, task_timeout=600),
    "pool-sqlite": dict(jobs=2),
    "pool-sqlite-retry": dict(jobs=2, retries=1),
}


@pytest.fixture(scope="module")
def mixed_tasks():
    """4 fixed-count Table-1 tasks + 6 adaptive Figure-1 tasks."""
    sweep = CampaignSpec(
        kind="table1", scale=128, reps=2, uids=(2213,), s_span=0,
        methods=("cg", "bicgstab"),
    ).expand()
    fixed = [t for t in sweep if t.s == 4]  # both ABFT schemes x both methods
    adaptive = CampaignSpec(
        kind="figure1", scale=128, uids=(2213,), mtbf_values=(30.0, 300.0),
        sampling="ci=0.5,conf=0.9,min=3,max=4",
    ).expand()
    assert (len(fixed), len(adaptive)) == (4, 6)
    return fixed + adaptive


@pytest.fixture(scope="module")
def reference(mixed_tasks, tmp_path_factory):
    return _run("serial", mixed_tasks, tmp_path_factory.mktemp("ref"))


def _run(name, tasks, tmp_path):
    """(records, conserved telemetry totals) of one scheduler's run, on
    a ``sqlite:`` store for the ``-sqlite`` ones (``grid_store``'s
    configuration) and a ``sharded:`` one otherwise."""
    url = (f"sqlite:{tmp_path / 'store.db'}" if "sqlite" in name
           else f"sharded:{tmp_path / 'store.d'}")
    records = run_campaign(tasks, store=url, **SCHEDULERS[name])
    totals = dict.fromkeys(CONSERVED, 0)
    for rec in open_store(url).iter_records():
        if rec.get("kind") == "telemetry":
            for key in CONSERVED:
                totals[key] += rec["counters"].get(key, 0)
    return records, totals


@pytest.mark.parametrize("name", [n for n in SCHEDULERS if n != "serial"])
def test_every_scheduler_conserves_records_and_work(
    name, mixed_tasks, reference, tmp_path
):
    ref_records, ref_totals = reference
    assert ref_totals["campaign.tasks"] == 10
    assert ref_totals["adaptive.tasks"] == 6
    # Fixed-count reps are solves, but never adaptive.reps.
    assert ref_totals["engine.solves"] == 4 * 2 + ref_totals["adaptive.reps"]
    records, totals = _run(name, mixed_tasks, tmp_path)
    assert records == ref_records
    assert totals == ref_totals


def _calls(path: Path, name: str) -> int:
    return sum(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_single_path_stays_single():
    assert _calls(SRC / "sim" / "engine.py", "run_ft_method") == 1
    layers = [*(SRC / "campaign").glob("*.py"), *(SRC / "store").glob("*.py")]
    assert sum(_calls(p, "run_guarded") for p in layers) == 1
    telemetry_literals = sum(
        isinstance(node, ast.Dict)
        and any(
            isinstance(k, ast.Constant) and k.value == "kind"
            and isinstance(v, ast.Constant) and v.value == "telemetry"
            for k, v in zip(node.keys, node.values)
        )
        for p in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
    )
    assert telemetry_literals == 1


def test_unenforceable_deadline_warns_once_per_process(monkeypatch):
    monkeypatch.setattr(harness, "_warned_unenforced", False)
    caught = []

    def off_main_thread():
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            for _ in range(2):
                with harness.deadline(5.0, "a" * 64):
                    pass
            with harness.deadline(None, "a" * 64):
                pass
        caught.extend(w)

    thread = threading.Thread(target=off_main_thread)
    thread.start()
    thread.join()
    assert len(caught) == 1
    assert issubclass(caught[0].category, RuntimeWarning)
    assert "task-timeout of 5s is not being enforced" in str(caught[0].message)


def test_pool_over_jsonl_store_checkpoints_adaptive_tasks(tmp_path, mixed_tasks):
    # The dispatcher is the only writer, so a single-file JSONL store
    # receives the workers' partial records exactly as a serial run
    # writes them.
    adaptive = mixed_tasks[4:]

    def partials(jobs):
        url = tmp_path / f"jobs{jobs}.jsonl"
        run_campaign(adaptive, jobs=jobs, store=url)
        return sorted(
            (r["task_hash"], r["reps_done"])
            for r in open_store(url).iter_records()
            if r.get("kind") == "partial"
        )

    serial = partials(1)
    assert serial and partials(2) == serial
