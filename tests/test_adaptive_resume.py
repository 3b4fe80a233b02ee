"""Adaptive partial records: mid-task crash, resume, zero recompute.

An adaptive task checkpoints its per-rep trajectory into the store as
``kind="partial"`` records (one per completed batch).  These tests pin
the recovery contract on every store backend: kill a worker mid-task,
resume against the same store, and the campaign (a) re-executes only
the repetitions the dead worker never finished — counted exactly via
the ``adaptive.reps`` metric — and (b) converges to records
bit-identical to an uninterrupted run, on a store ``repro store
verify`` calls clean.
"""

import multiprocessing
import os
import signal

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.executor import (
    execute_task,
    load_partials,
    make_partial_record,
    partial_hash,
)
from repro.obs.metrics import METRICS
from repro.store import open_store, verify_store

#: A relative CI target of 1e-6 is unreachable for fault-perturbed
#: timings, so every task with timing variance runs to its cap —
#: which makes "how many reps remain after the crash" deterministic.
SAMPLING = "ci=1e-06,conf=0.95,min=2,max=40"


def _spec() -> CampaignSpec:
    return CampaignSpec(
        kind="figure1", scale=16, uids=(2213,), mtbf_values=(100.0,),
        sampling=SAMPLING,
    )


@pytest.fixture(scope="module")
def adaptive_tasks():
    return _spec().expand()


@pytest.fixture(scope="module")
def baseline_records(adaptive_tasks):
    """Records of an uninterrupted serial adaptive run."""
    return run_campaign(adaptive_tasks, jobs=1)


def _task_records(loaded: dict) -> dict:
    return {
        h: r for h, r in loaded.items()
        if r.get("kind") not in ("telemetry", "partial")
    }


def _expected_fresh_reps(url, tasks, baseline) -> "tuple[int, int]":
    """(reps a resume must execute, reps it must restore) given the
    store's current partials/finals and the uninterrupted baseline."""
    store = open_store(url)
    done = {
        r["hash"] for r in store.iter_records()
        if r.get("kind") not in ("telemetry", "partial")
    }
    partials = load_partials(store, {t.task_hash() for t in tasks})
    execute = resumed = 0
    for task, rec in zip(tasks, baseline):
        h = task.task_hash()
        if h in done:
            continue
        prior = len(partials[h]["times"]) if h in partials else 0
        # Prefix sharing makes the resumed task stop at exactly the
        # rep count the uninterrupted run stopped at.
        execute += rec["stats"]["reps"] - prior
        resumed += prior
    return execute, resumed


def _writer_main(url, n_partials):
    """Child: run the adaptive campaign serially, SIGKILL ourselves the
    instant the ``n_partials``-th partial checkpoint hits the store —
    i.e. mid-task, between two repetitions."""
    store = open_store(url)
    real_append = store.append
    seen = [0]

    def tapped(rec):
        real_append(rec)
        if rec.get("kind") == "partial":
            seen[0] += 1
            if seen[0] >= n_partials:
                os.kill(os.getpid(), signal.SIGKILL)

    store.append = tapped
    run_campaign(_spec().expand(), jobs=1, store=store)


class TestKilledAdaptiveWorkerResume:
    @pytest.mark.parametrize("kind", ["jsonl", "sharded", "sqlite"])
    def test_resume_recomputes_zero_reps(
        self, kind, tmp_path, adaptive_tasks, baseline_records
    ):
        if kind == "jsonl":
            url = str(tmp_path / "r.jsonl")
        elif kind == "sharded":
            url = f"sharded:{tmp_path / 'r.d'}"
        else:
            url = f"sqlite:{tmp_path / 'r.db'}"
        proc = multiprocessing.Process(target=_writer_main, args=(url, 4))
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL

        # The crash footprint: at least one partial checkpoint, no
        # record yet for the task it belongs to.
        store = open_store(url)
        partials = load_partials(
            store, {t.task_hash() for t in adaptive_tasks}
        )
        assert partials, "child died before writing any partial"
        done = _task_records(store.load())
        assert all(h not in done for h in partials)

        expect_execute, expect_resume = _expected_fresh_reps(
            url, adaptive_tasks, baseline_records
        )
        assert expect_resume > 0
        before = METRICS.count("adaptive.reps")
        before_resumed = METRICS.count("adaptive.reps_resumed")
        records = run_campaign(adaptive_tasks, jobs=1, store=url)
        assert METRICS.count("adaptive.reps") - before == expect_execute
        assert (
            METRICS.count("adaptive.reps_resumed") - before_resumed
            == expect_resume
        )

        # Bit-identical to the uninterrupted run, and the store is
        # integrity-clean after the crash/resume cycle.
        assert records == baseline_records
        report = verify_store(url)
        assert report["corrupt"] == 0
        assert not report["torn_tail"]

    def test_resumed_store_reaggregates_identically(
        self, tmp_path, adaptive_tasks, baseline_records
    ):
        # A full record set reached via crash+resume must aggregate
        # exactly like one written in a single run.
        url = str(tmp_path / "resumed.jsonl")
        proc = multiprocessing.Process(target=_writer_main, args=(url, 2))
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL
        run_campaign(adaptive_tasks, jobs=1, store=url)

        from repro.campaign.aggregate import aggregate_figure1_store

        points = aggregate_figure1_store(adaptive_tasks, url)
        direct = {
            t.task_hash(): r
            for t, r in zip(adaptive_tasks, baseline_records)
        }
        for task, p in zip(adaptive_tasks, points):
            stats = direct[task.task_hash()]["stats"]
            assert p.mean_time == stats["mean_time"]
            assert p.reps_used == stats["reps"]
            assert p.reps_cap == task.reps


class TestPartialRecordPlumbing:
    def test_partial_prior_resumes_exact_prefix(self, tmp_path, adaptive_tasks):
        # Deterministic variant without process murder: capture the
        # k-th checkpoint an adaptive task emits, seed a store with it,
        # and prove the resume executes exactly (total - k) reps while
        # reproducing the fresh record bit for bit.
        task = adaptive_tasks[0]

        captured = []

        class Sink:
            def append(self, rec):
                captured.append(rec)

        fresh = execute_task(task, partial_store=Sink())
        total = fresh["stats"]["reps"]
        assert total > 3
        prior = captured[2]  # checkpoint after rep 3
        assert prior["kind"] == "partial"
        assert prior["reps_done"] == 3
        assert prior["hash"] == partial_hash(task.task_hash())

        url = str(tmp_path / "seeded.jsonl")
        store = open_store(url)
        store.append(prior)
        before = METRICS.count("adaptive.reps")
        records = run_campaign([task], jobs=1, store=store)
        assert METRICS.count("adaptive.reps") - before == total - 3
        assert records[0] == fresh

    def test_fleet_hands_a_seeded_partial_to_its_worker(self, tmp_path):
        # The same resume through a --jobs 2 fleet on a sqlite: store:
        # the dispatcher loads the partial and sends it out with the
        # task, and the worker finishes it to the serial record.
        tasks = CampaignSpec(
            kind="table1", scale=48, uids=(2213,), s_span=0,
            sampling="ci=0.5,conf=0.9,min=2,max=6",
        ).expand()
        serial_url = f"sqlite:{tmp_path / 'serial.db'}"
        serial = run_campaign(tasks, jobs=1, store=serial_url)
        captured = []

        class Sink:
            def append(self, rec):
                captured.append(rec)

        execute_task(tasks[0], partial_store=Sink())
        assert captured
        url = f"sqlite:{tmp_path / 'seeded.db'}"
        with open_store(url) as store:
            store.append(captured[0])  # checkpoint after rep 1
        assert run_campaign(tasks, jobs=2, store=url) == serial

        def reps_run(store_url):
            return sum(r["counters"].get("adaptive.reps", 0)
                       for r in open_store(store_url).iter_records()
                       if r.get("kind") == "telemetry")

        assert reps_run(url) == reps_run(serial_url) - 1  # rep 1 not rerun

    def test_make_partial_record_roundtrip(self, tmp_path):
        per_rep = {
            "times": [1.5, 2.5], "iterations": [10, 11],
            "rollbacks": [0, 1], "corrections": [2, 0],
            "faults": [1, 1], "converged": [True, True],
        }
        rec = make_partial_record("abc123", per_rep)
        assert rec["reps_done"] == 2
        assert rec["schema"] == 1
        # The payload is copied, not aliased.
        per_rep["times"].append(9.9)
        assert rec["per_rep"]["times"] == [1.5, 2.5]
        store = open_store(str(tmp_path / "p.jsonl"))
        store.append(rec)
        assert load_partials(store, {"abc123"}) == {
            "abc123": rec["per_rep"]
        }

    def test_load_partials_last_wins_and_filters(self, tmp_path):
        store = open_store(str(tmp_path / "p.jsonl"))
        store.append(make_partial_record("aaa", {
            "times": [1.0], "iterations": [5], "rollbacks": [0],
            "corrections": [0], "faults": [0], "converged": [True],
        }))
        store.append(make_partial_record("aaa", {
            "times": [1.0, 2.0], "iterations": [5, 6], "rollbacks": [0, 0],
            "corrections": [0, 0], "faults": [0, 1], "converged": [True, True],
        }))
        store.append(make_partial_record("bbb", {
            "times": [3.0], "iterations": [7], "rollbacks": [0],
            "corrections": [0], "faults": [0], "converged": [True],
        }))
        got = load_partials(store, {"aaa"})
        assert set(got) == {"aaa"}
        assert got["aaa"]["times"] == [1.0, 2.0]


class TestChaosHealsAdaptiveCampaign:
    def test_injected_kills_heal_with_zero_lost_work(
        self, tmp_path, adaptive_tasks, baseline_records
    ):
        # The self-healing harness (repro.chaos) around adaptive tasks:
        # injected worker kills must retry/heal to the uninterrupted
        # result, and the surviving store must be verify-clean.
        url = f"sharded:{tmp_path / 'chaos.d'}"
        records = run_campaign(
            adaptive_tasks, jobs=2, store=url,
            retries=6, chaos="kill=0.3,seed=7",
        )
        assert records == baseline_records
        assert _task_records(open_store(url).load()) == {
            t.task_hash(): r
            for t, r in zip(adaptive_tasks, baseline_records)
        }
        report = verify_store(url)
        assert report["corrupt"] == 0
