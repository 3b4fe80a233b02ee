"""Serve mode: worker fleets, lease coordination, crash stealing."""

import time

import pytest

from repro.campaign import CampaignSpec, run_campaign, serve_campaign
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


def _task_records(loaded: dict) -> dict:
    return {h: r for h, r in loaded.items() if r.get("kind") != "telemetry"}


class TestServeCampaign:
    @pytest.mark.parametrize("scheme", ["sharded", "sqlite"])
    def test_two_workers_match_jobs1(self, scheme, tmp_path, small_tasks,
                                     serial_records):
        # The acceptance bar: a lease-coordinated fleet must produce
        # per-task results identical to --jobs 1.
        url = (
            f"sharded:{tmp_path / 'serve.d'}" if scheme == "sharded"
            else f"sqlite:{tmp_path / 'serve.db'}"
        )
        records = serve_campaign(small_tasks, url, workers=2, lease_ttl=30.0)
        assert records == serial_records
        # ...and the store holds exactly those records (plus telemetry).
        stored = _task_records(open_store(url).load())
        assert stored == {t.task_hash(): r
                          for t, r in zip(small_tasks, serial_records)}

    def test_serve_resumes_from_populated_store(self, tmp_path, small_tasks,
                                                serial_records):
        url = f"sqlite:{tmp_path / 'serve.db'}"
        run_campaign(small_tasks, jobs=1, store=url)
        t0 = time.time()
        records = serve_campaign(small_tasks, url, workers=2, lease_ttl=30.0)
        assert records == serial_records
        assert time.time() - t0 < 10  # served from the store, not recomputed

    def test_partial_store_only_runs_whats_missing(self, tmp_path, small_tasks,
                                                   serial_records):
        url = f"sqlite:{tmp_path / 'serve.db'}"
        store = open_store(url)
        with store:
            for task, rec in list(zip(small_tasks, serial_records))[:-3]:
                store.append(rec)
        assert serve_campaign(small_tasks, url, workers=2,
                              lease_ttl=30.0) == serial_records

    def test_stale_lease_from_dead_worker_is_stolen(self, tmp_path,
                                                    small_tasks,
                                                    serial_records):
        # A "crashed worker": a lease on a pending task whose owner
        # never heartbeats.  The fleet must steal it after the TTL and
        # still complete everything.
        url = f"sharded:{tmp_path / 'serve.d'}"
        store = open_store(url)
        dead = small_tasks[0].task_hash()
        assert store.try_claim(dead, "pid-dead-00000000", ttl=0.5)
        records = serve_campaign(small_tasks, url, workers=2, lease_ttl=0.5)
        assert records == serial_records

    def test_jsonl_store_is_rejected(self, tmp_path, small_tasks):
        with pytest.raises(LeaseUnsupported, match="serve mode"):
            serve_campaign(small_tasks, tmp_path / "r.jsonl", workers=2)

    def test_bad_worker_count_rejected(self, tmp_path, small_tasks):
        with pytest.raises(ValueError, match="workers"):
            serve_campaign(small_tasks, f"sqlite:{tmp_path / 'r.db'}",
                           workers=0)

    def test_bad_ttl_rejected(self, tmp_path, small_tasks):
        with pytest.raises(ValueError, match="lease_ttl"):
            serve_campaign(small_tasks, f"sqlite:{tmp_path / 'r.db'}",
                           workers=1, lease_ttl=0.0)

    def test_worker_telemetry_carries_owner(self, tmp_path, small_tasks):
        url = f"sqlite:{tmp_path / 'serve.db'}"
        serve_campaign(small_tasks, url, workers=2, lease_ttl=30.0)
        tele = [r for r in open_store(url).load().values()
                if r.get("kind") == "telemetry"]
        assert tele and all(t["serve_worker"].startswith("pid-") for t in tele)
        assert sum(t["fresh"] for t in tele) == len(small_tasks)


class TestServeSupportsFlags:
    def test_backends_advertise_lease_support(self, tmp_path):
        assert ShardedStore(tmp_path / "a.d").supports_leases
        assert SqliteStore(tmp_path / "a.db").supports_leases
        assert not ResultStore(tmp_path / "a.jsonl").supports_leases


class TestServeAdaptive:
    @pytest.fixture(scope="class")
    def adaptive_tasks(self):
        return CampaignSpec(
            kind="table1", scale=48, uids=(2213,), s_span=0,
            sampling="ci=0.5,conf=0.9,min=2,max=6",
        ).expand()

    def test_fleet_matches_jobs1_and_resumes_partials(
        self, tmp_path, adaptive_tasks
    ):
        # Adaptive tasks through the lease-coordinated fleet: same
        # records as the serial executor, and a partial checkpoint
        # seeded into the store is honoured (the worker resumes the
        # prefix rather than recomputing it).
        serial = run_campaign(adaptive_tasks, jobs=1)
        url = f"sqlite:{tmp_path / 'ad.db'}"
        records = serve_campaign(adaptive_tasks, url, workers=2,
                                 lease_ttl=30.0)
        assert records == serial

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
        url = f"sqlite:{tmp_path / 'seeded.db'}"
        store = open_store(url)
        store.append(captured[0])  # checkpoint after rep 1
        records = serve_campaign(adaptive_tasks, url, workers=2,
                                 lease_ttl=30.0)
        assert records == serial
