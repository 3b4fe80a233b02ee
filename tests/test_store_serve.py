"""Serve mode: lease-mode dispatchers, peer coordination, crash stealing.

``repro serve`` is ``run_campaign(lease_ttl=...)``: the one dispatcher
of ``--jobs N`` claims every task in the store's lease board before a
worker runs it, so several dispatchers may share one store.  The
shipped backend with a lease board is ``sqlite:``.
"""

import multiprocessing
import threading
import time

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.store import (
    LeaseUnsupported,
    ResultStore,
    ShardedStore,
    SqliteStore,
    open_store,
)


@pytest.fixture(scope="module")
def small_tasks():
    return CampaignSpec(
        kind="table1", scale=48, reps=1, uids=(2213,), s_span=0
    ).expand()


@pytest.fixture(scope="module")
def serial_records(small_tasks):
    return run_campaign(small_tasks, jobs=1)


def _url(tmp_path):
    return f"sqlite:{tmp_path / 'serve.db'}"


def _task_records(loaded: dict) -> dict:
    return {h: r for h, r in loaded.items() if r.get("kind") != "telemetry"}


def _telemetry(url) -> list:
    return [r for r in open_store(url).iter_records() if r.get("kind") == "telemetry"]


def _serve(tasks, url, workers=2, lease_ttl=30.0, **kwargs):
    return run_campaign(tasks, jobs=workers, store=url, lease_ttl=lease_ttl, **kwargs)


class TestServeCampaign:
    def test_two_workers_match_jobs1(self, tmp_path, small_tasks,
                                     serial_records):
        # The acceptance bar: a lease-mode fleet must produce per-task
        # results identical to --jobs 1, and leave no lease behind.
        url = _url(tmp_path)
        records = _serve(small_tasks, url)
        assert records == serial_records
        stored = _task_records(open_store(url).load())
        assert stored == {t.task_hash(): r
                          for t, r in zip(small_tasks, serial_records)}
        assert open_store(url).info()["active_leases"] == 0

    def test_one_worker_still_runs_the_fleet(self, tmp_path, small_tasks,
                                             serial_records):
        url = _url(tmp_path)
        assert _serve(small_tasks[:3], url, workers=1) == serial_records[:3]
        (tele,) = _telemetry(url)
        assert tele["workers"] == 1 and tele["fresh"] == 3

    def test_serve_resumes_from_populated_store(self, tmp_path, small_tasks,
                                                serial_records):
        url = _url(tmp_path)
        run_campaign(small_tasks, jobs=1, store=url)
        t0 = time.time()
        records = _serve(small_tasks, url)
        assert records == serial_records
        assert time.time() - t0 < 10  # served from the store, not recomputed

    def test_partial_store_only_runs_whats_missing(self, tmp_path, small_tasks,
                                                   serial_records):
        url = _url(tmp_path)
        with open_store(url) as store:
            for rec in serial_records[:-3]:
                store.append(rec)
        assert _serve(small_tasks, url) == serial_records
        (tele,) = _telemetry(url)
        assert (tele["fresh"], tele["cached"]) == (3, len(small_tasks) - 3)

    def test_stale_lease_from_dead_dispatcher_is_stolen(self, tmp_path,
                                                        small_tasks,
                                                        serial_records):
        # A "crashed dispatcher": a lease on a pending task whose owner
        # never heartbeats.  The campaign must steal it after the TTL
        # and still complete everything.
        url = _url(tmp_path)
        store = open_store(url)
        dead = small_tasks[0].task_hash()
        assert store.try_claim(dead, "pid-dead-00000000", ttl=0.5)
        records = _serve(small_tasks, url, lease_ttl=0.5)
        assert records == serial_records

    def test_jsonl_store_is_rejected(self, tmp_path, small_tasks):
        with pytest.raises(LeaseUnsupported, match="serve mode"):
            _serve(small_tasks, tmp_path / "r.jsonl")

    def test_sharded_store_is_rejected(self, tmp_path, small_tasks):
        # sharded: is a single-writer store: one message, naming the
        # backend serve mode does accept, and nothing written.
        url = f"sharded:{tmp_path / 'r.d'}"
        with pytest.raises(LeaseUnsupported,
                           match="serve mode needs a sqlite:FILE.db store"):
            _serve(small_tasks, url)
        assert not (tmp_path / "r.d").exists()

    def test_no_store_is_rejected(self, small_tasks):
        with pytest.raises(LeaseUnsupported, match="serve mode"):
            run_campaign(small_tasks, jobs=2, lease_ttl=30.0)

    def test_bad_worker_count_rejected(self, tmp_path, small_tasks):
        with pytest.raises(ValueError, match="jobs"):
            _serve(small_tasks, _url(tmp_path), workers=0)

    def test_bad_ttl_rejected(self, tmp_path, small_tasks):
        with pytest.raises(ValueError, match="lease_ttl"):
            _serve(small_tasks, _url(tmp_path), lease_ttl=0.0)

    def test_telemetry_carries_the_dispatcher_owner(self, tmp_path, small_tasks):
        url = _url(tmp_path)
        _serve(small_tasks, url)
        (tele,) = _telemetry(url)
        assert tele["owner"].startswith("pid-")
        assert tele["fresh"] == len(small_tasks)


class _ReadCounting(SqliteStore):
    """A SQLite store that counts full reads."""

    reads = 0

    def iter_records(self):
        self.reads += 1
        return super().iter_records()


def test_peer_free_lease_mode_reads_the_store_a_constant_number_of_times(
    tmp_path, small_tasks
):
    # The dispatcher claims, heartbeats and appends without re-reading
    # the store: the initial resume (plus load_partials for adaptive
    # tasks) is all, whatever the task count.
    reads = []
    for n in (3, len(small_tasks)):
        store = _ReadCounting(tmp_path / f"n{n}.db")
        _serve(small_tasks[:n], store)
        reads.append(store.reads)
    assert reads[0] == reads[1] <= 2


class TestPeerDispatchers:
    def test_peer_held_tasks_are_deferred_then_adopted(
        self, tmp_path, small_tasks, serial_records
    ):
        # A foreign owner holds live, heartbeated leases on half the
        # tasks.  The dispatcher runs the other half, defers the held
        # half, and adopts the records the peer appends before letting
        # its leases go.
        url = _url(tmp_path)
        peer = open_store(url)
        held = list(zip(small_tasks, serial_records))[::2]
        for task, _ in held:
            assert peer.try_claim(task.task_hash(), "pid-peer-00000000", 30.0)
        others = {t.task_hash() for t in small_tasks} - {t.task_hash() for t, _ in held}
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(records=_serve(small_tasks, url))
        )
        thread.start()
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                for task, _ in held:
                    assert peer.heartbeat(task.task_hash(), "pid-peer-00000000", 30.0)
                if others <= set(_task_records(open_store(url).load())):
                    break
                time.sleep(0.05)
            assert thread.is_alive()  # waiting on the held half
            for task, record in held:
                peer.append(record)
                peer.release(task.task_hash(), "pid-peer-00000000")
        finally:
            thread.join(120)
        assert not thread.is_alive()
        assert out["records"] == serial_records
        (tele,) = _telemetry(url)
        assert (tele["fresh"], tele["cached"]) == (len(others), len(held))

    def test_two_dispatcher_processes_share_one_sqlite_store(
        self, tmp_path, small_tasks, serial_records
    ):
        url = _url(tmp_path)
        links, procs = [], []
        for _ in range(2):
            here, there = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_dispatch, args=(small_tasks, url, there)
            )
            proc.start()
            there.close()
            links.append(here)
            procs.append(proc)
        for here in links:
            assert here.poll(180), "a dispatcher never answered"
        results = [here.recv() for here in links]
        for proc in procs:
            proc.join(30)
            assert proc.exitcode == 0
        assert results == [serial_records, serial_records]
        stored = _task_records(open_store(url).load())
        assert stored == {t.task_hash(): r
                          for t, r in zip(small_tasks, serial_records)}
        owners = {t["owner"] for t in _telemetry(url)}
        assert len(owners) == 2


def _dispatch(tasks, url, conn):
    """Child: one lease-mode dispatcher, its records sent back."""
    conn.send(_serve(tasks, url))
    conn.close()


class TestServeSupportsFlags:
    def test_backends_advertise_lease_support(self, tmp_path):
        assert SqliteStore(tmp_path / "a.db").supports_leases
        assert not ShardedStore(tmp_path / "a.d").supports_leases
        assert not ResultStore(tmp_path / "a.jsonl").supports_leases


class TestServeAdaptive:
    @pytest.fixture(scope="class")
    def adaptive_tasks(self):
        return CampaignSpec(
            kind="table1", scale=48, uids=(2213,), s_span=0,
            sampling="ci=0.5,conf=0.9,min=2,max=6",
        ).expand()

    def test_fleet_matches_jobs1_and_resumes_partials(self, tmp_path, adaptive_tasks):
        # Adaptive tasks through a lease-mode fleet: the workers' partial
        # records go up their pipes and the dispatcher appends them.
        serial = run_campaign(adaptive_tasks, jobs=1)
        url = _url(tmp_path)
        assert _serve(adaptive_tasks, url) == serial
        assert any(r.get("kind") == "partial" for r in open_store(url).iter_records())

    def test_seeded_partial_is_resumed_not_recomputed(
        self, tmp_path, adaptive_tasks
    ):
        from repro.campaign.executor import execute_task

        serial = run_campaign(adaptive_tasks, jobs=1)
        task = adaptive_tasks[0]
        captured = []

        class Sink:
            def append(self, rec):
                captured.append(rec)

        execute_task(task, partial_store=Sink())
        assert captured
        url = _url(tmp_path)
        store = open_store(url)
        store.append(captured[0])  # checkpoint after rep 1
        assert _serve(adaptive_tasks, url) == serial
