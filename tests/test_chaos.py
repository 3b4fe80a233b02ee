"""Fault injection and self-healing: repro.chaos plus the hardened
campaign paths (docs/DESIGN.md §10).

The soak tests at the bottom are the acceptance bar: campaigns whose
workers are repeatedly crashed and hung must still produce stores
bit-identical to a clean ``--jobs 1`` run.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import Study
from repro.api.cli import main
from repro.campaign import CampaignSpec, ServeInterrupted, run_campaign
from repro.chaos import harness
from repro.chaos import (
    CHAOS_ENV,
    CHAOS_EXIT_CODE,
    ChaosPolicy,
    RetryPolicy,
    TaskTimeout,
    quarantine_record,
    resolve_chaos,
    resolve_retry,
    run_guarded,
)
from repro.store import open_store


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


def _armed(**kwargs) -> ChaosPolicy:
    """A policy that injects in THIS process (home suppression off)."""
    return ChaosPolicy(**kwargs).with_home(-1)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
class TestChaosPolicy:
    def test_draws_are_deterministic_and_uniformish(self):
        p = ChaosPolicy(kill=0.5, seed=7)
        draws = [p.draw("kill", f"h{i}") for i in range(200)]
        assert draws == [p.draw("kill", f"h{i}") for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 40 <= sum(d < 0.5 for d in draws) <= 160

    def test_generation_rerolls_draws(self):
        p = ChaosPolicy(kill=0.5, seed=7)
        q = p.with_generation(1)
        assert any(
            p.draw("kill", f"h{i}") != q.draw("kill", f"h{i}") for i in range(20)
        )

    def test_home_process_never_injects(self):
        p = ChaosPolicy(kill=1.0, seed=1).with_home()  # home = this pid
        assert p.enabled and not p.active
        assert not p.should("kill", "abc")
        assert _armed(kill=1.0, seed=1).should("kill", "abc")

    def test_parse_round_trip_and_off(self):
        p = ChaosPolicy.parse("kill=0.2,hang=0.05,hang_s=5,seed=7")
        assert (p.kill, p.hang, p.hang_s, p.seed) == (0.2, 0.05, 5.0, 7)
        assert ChaosPolicy.parse(p.to_spec()) == p
        for spec in ("", "off", "0", "none", "kill=0"):
            assert ChaosPolicy.parse(spec) is None

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="chaos spec"):
            ChaosPolicy.parse("explode=0.5")
        with pytest.raises(ValueError, match="chaos spec"):
            ChaosPolicy.parse("tear=0.1")  # no campaign process tears a store write
        with pytest.raises(ValueError, match="chaos spec"):
            ChaosPolicy.parse("kill")
        with pytest.raises(ValueError, match="probability"):
            ChaosPolicy.parse("kill=1.5")

    def test_env_gate(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "kill=0.25,seed=9")
        p = resolve_chaos(None)
        assert p is not None and p.kill == 0.25 and p.home_pid == os.getpid()
        # An explicit spec overrides the environment; "off" disables.
        assert resolve_chaos("off") is None
        monkeypatch.setenv(CHAOS_ENV, "")
        assert resolve_chaos(None) is None

    def test_resolve_collapses_disabled(self):
        assert resolve_chaos(ChaosPolicy()) is None
        with pytest.raises(TypeError):
            resolve_chaos(42)


# ----------------------------------------------------------------------
# retry / deadline / quarantine
# ----------------------------------------------------------------------
class _FakeTask:
    """Just enough TaskSpec surface for run_guarded."""

    def __init__(self, h="deadbeef" * 8):
        self._h = h

    def task_hash(self):
        return self._h

    def to_json(self):
        return {"fake": True}


class TestRetryPolicy:
    def test_resolve_off_is_none(self):
        assert resolve_retry() is None
        assert resolve_retry(retries=0, task_timeout=None) is None
        assert resolve_retry(retries=2).retries == 2
        assert resolve_retry(task_timeout=1.5).timeout == 1.5

    def test_delay_backs_off_with_deterministic_jitter(self):
        r = RetryPolicy(retries=8, backoff=0.1)
        d = [r.delay("h", k) for k in range(1, 9)]
        assert d == [r.delay("h", k) for k in range(1, 9)]
        assert 0.05 <= d[0] <= 0.1
        assert d[7] <= harness.BACKOFF_CAP_S  # 0.1 * 2**7 = 12.8 s, capped
        assert r.delay("h", 1) != r.delay("other", 1)  # task-keyed jitter

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


class TestRunGuarded:
    def test_fast_path_calls_execute_directly(self):
        calls = []
        rec = run_guarded(
            _FakeTask(), execute=lambda t, **kw: calls.append(kw) or {"ok": 1}
        )
        assert rec == {"ok": 1} and calls == [{}]

    def test_flaky_task_heals_within_retries(self):
        from repro.obs.metrics import METRICS

        attempts = []

        def flaky(task, **kw):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return {"hash": task.task_hash(), "ok": True}

        before = METRICS.count("harness.retries")
        rec = run_guarded(
            _FakeTask(),
            retry=RetryPolicy(retries=3, backoff=0.001),
            execute=flaky,
        )
        assert rec["ok"] and len(attempts) == 3
        assert METRICS.count("harness.retries") == before + 2

    def test_exhausted_attempts_quarantine(self):
        def broken(task, **kw):
            raise RuntimeError("poison")

        rec = run_guarded(
            _FakeTask("aa" * 32),
            retry=RetryPolicy(retries=2, backoff=0.001),
            execute=broken,
        )
        assert rec["kind"] == "quarantine"
        assert rec["hash"] == "aa" * 32
        assert rec["attempts"] == 3
        assert "RuntimeError: poison" in rec["error"]
        assert rec["task"] == {"fake": True}

    def test_without_retry_policy_errors_propagate_under_chaos(self):
        def broken(task, **kw):
            raise RuntimeError("poison")

        # Chaos armed (a short injected hang, then the task runs), no
        # retry policy: nothing quarantines, the error propagates.
        with pytest.raises(RuntimeError, match="poison"):
            run_guarded(
                _FakeTask(), chaos=_armed(hang=1.0, hang_s=0.01, seed=1), execute=broken
            )

    def test_deadline_turns_hang_into_timeout_then_quarantine(self):
        def hangs(task, **kw):
            time.sleep(5.0)
            return {"hash": task.task_hash()}

        t0 = time.monotonic()
        rec = run_guarded(
            _FakeTask(),
            retry=RetryPolicy(retries=1, timeout=0.2, backoff=0.001),
            execute=hangs,
        )
        assert time.monotonic() - t0 < 3.0
        assert rec["kind"] == "quarantine"
        assert "deadline" in rec["error"]

    def test_injected_hang_healed_by_deadline(self):
        calls = []
        chaos = _armed(hang=1.0, hang_s=30.0, seed=3)

        def fine(task, **kw):
            calls.append(1)
            return {"hash": task.task_hash(), "ok": True}

        # Every attempt hangs (p=1.0), the deadline converts each hang
        # into a retryable timeout, and attempts run out -> quarantine.
        # The solver itself is never reached.
        t0 = time.monotonic()
        rec = run_guarded(
            _FakeTask(),
            retry=RetryPolicy(retries=1, timeout=0.2, backoff=0.001),
            chaos=chaos,
            execute=fine,
        )
        assert time.monotonic() - t0 < 3.0
        assert rec["kind"] == "quarantine" and not calls

    def test_quarantine_record_shape(self):
        rec = quarantine_record(_FakeTask("bb" * 32), ValueError("x"), 4)
        assert rec == {
            "hash": "bb" * 32,
            "kind": "quarantine",
            "schema": 1,
            "task": {"fake": True},
            "error": "ValueError: x",
            "attempts": 4,
        }


# ----------------------------------------------------------------------
# self-healing --jobs execution
# ----------------------------------------------------------------------
class TestHardenedCampaign:
    def test_pool_chaos_kills_heal_to_identical_records(
        self, tmp_path, small_tasks, serial_records
    ):
        # Injected worker crashes kill fleet workers; supervision
        # restarts them (re-rolling the kill draws) and, if the budget
        # runs out, runs the rest serially in the home process — where
        # injection is suppressed.  Either way the records must be
        # bit-identical.
        records = run_campaign(
            small_tasks,
            jobs=2,
            store=f"sharded:{tmp_path / 'chaos.d'}",
            chaos="kill=0.4,seed=11",
        )
        assert records == serial_records

    def test_unhardened_kills_restart_workers_to_identical_records(
        self, small_tasks, serial_records
    ):
        # No --retries, no --task-timeout: the one restart rule applies
        # all the same, so injected crashes cost restarts, not the run.
        from repro.obs.metrics import METRICS

        before = METRICS.count("campaign.worker_restarts")
        records = run_campaign(small_tasks, jobs=2, chaos="kill=0.3,seed=2015")
        assert records == serial_records
        assert METRICS.count("campaign.worker_restarts") > before

    def test_sigkilled_worker_is_restarted_without_hardening(
        self, small_tasks, serial_records, monkeypatch
    ):
        # A real SIGKILL of a worker, no flag armed: the dispatcher
        # requeues what the worker held and restarts it.  Tasks are
        # padded (forked workers inherit the patch) so the kill lands
        # mid-campaign; run_campaign runs in a thread so this one can
        # hunt the worker pid.
        import repro.campaign.executor as executor
        from repro.obs.metrics import METRICS

        real = executor.execute_task

        def slow(task, **kw):
            time.sleep(0.2)
            return real(task, **kw)

        monkeypatch.setattr(executor, "execute_task", slow)
        before = METRICS.count("campaign.worker_restarts")
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(records=run_campaign(small_tasks, jobs=2))
        )
        thread.start()
        killed = False
        deadline = time.monotonic() + 30
        while not killed and time.monotonic() < deadline and thread.is_alive():
            for proc in multiprocessing.active_children():
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.02)
        thread.join(120)
        assert killed and out["records"] == serial_records
        assert METRICS.count("campaign.worker_restarts") > before

    def test_quarantine_flows_through_run_campaign(self, small_tasks, monkeypatch):
        import repro.campaign.executor as executor
        from repro.obs.metrics import METRICS

        poison = small_tasks[0].task_hash()
        real = executor.execute_task

        def sometimes_poison(task, **kw):
            if task.task_hash() == poison:
                raise RuntimeError("poison task")
            return real(task, **kw)

        monkeypatch.setattr(executor, "execute_task", sometimes_poison)
        before = METRICS.count("campaign.quarantined")
        records = run_campaign(small_tasks, jobs=1, retries=1)
        assert METRICS.count("campaign.quarantined") == before + 1
        bad = [r for r in records if r.get("kind") == "quarantine"]
        assert len(bad) == 1 and bad[0]["hash"] == poison
        assert all(
            r.get("kind") != "quarantine"
            for r in records
            if r["hash"] != poison
        )

    def test_quarantine_skipped_by_study_points(self, small_tasks, monkeypatch):
        import repro.campaign.executor as executor
        from repro.api.study import StudyResult

        poison = small_tasks[0].task_hash()
        real = executor.execute_task

        def sometimes_poison(task, **kw):
            if task.task_hash() == poison:
                raise RuntimeError("poison task")
            return real(task, **kw)

        monkeypatch.setattr(executor, "execute_task", sometimes_poison)
        records = run_campaign(small_tasks, jobs=1, retries=0, task_timeout=60.0)
        result = StudyResult(list(small_tasks), records)
        assert result.quarantined == 1
        assert len(result.points()) == len(small_tasks) - 1


# ----------------------------------------------------------------------
# fleet soak over a sqlite: store: the acceptance bar
# ----------------------------------------------------------------------
class TestFleetChaosSoak:
    def test_chaos_soak_matches_clean_jobs1(
        self, tmp_path, small_tasks, serial_records
    ):
        # Workers are repeatedly crashed (seeded kill draws) and hung
        # (healed by --task-timeout); supervision restarts them and the
        # dispatcher requeues the tasks they held.  The store must end
        # up with records bit-identical to a clean serial run — nothing
        # lost, nothing duplicated, nothing quarantined.
        url = f"sqlite:{tmp_path / 'soak.db'}"
        records = run_campaign(
            small_tasks,
            jobs=2,
            store=url,
            task_timeout=20.0,
            retries=5,
            chaos="kill=0.25,hang=0.1,hang_s=0.5,seed=2015",
        )
        assert records == serial_records
        stored = _task_records(open_store(url).load())
        assert stored == {
            t.task_hash(): r for t, r in zip(small_tasks, serial_records)
        }
        assert not [r for r in records if r.get("kind") == "quarantine"]

    def test_graceful_shutdown_drains_and_resumes(
        self, tmp_path, small_tasks, serial_records
    ):
        # SIGTERM mid-campaign: workers finish their in-flight task and
        # exit 0, the dispatcher raises ServeInterrupted, and a resumed
        # campaign completes the remainder from the store.
        url = f"sqlite:{tmp_path / 'drain.db'}"

        # Fire SIGTERM only once the fleet is visibly up and mid-work;
        # injected hangs pad every task by 0.5s so the campaign cannot
        # finish before the signal lands.
        def send_when_running():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if any(
                    p.name.startswith("repro-fleet")
                    for p in multiprocessing.active_children()
                ):
                    time.sleep(0.2)
                    os.kill(os.getpid(), signal.SIGTERM)
                    return
                time.sleep(0.02)

        # Safety net: if the campaign somehow finishes before the
        # signal, the restored handler must be a no-op, not death.
        previous = signal.signal(signal.SIGTERM, lambda *a: None)
        sender = threading.Thread(target=send_when_running)
        try:
            sender.start()
            with pytest.raises(ServeInterrupted) as excinfo:
                run_campaign(
                    small_tasks,
                    jobs=2,
                    store=url,
                    chaos="hang=1.0,hang_s=0.5,seed=1",
                )
            assert excinfo.value.signum == signal.SIGTERM
        finally:
            sender.join(15)
            signal.signal(signal.SIGTERM, previous)
        records = run_campaign(small_tasks, jobs=2, store=url)
        assert records == serial_records

    def test_chaos_exit_code_is_distinctive(self):
        assert CHAOS_EXIT_CODE == 86
        with pytest.raises(TaskTimeout):  # the exception type is public
            raise TaskTimeout("x")


# ----------------------------------------------------------------------
# --jobs drain through the CLI
# ----------------------------------------------------------------------
def _count(url) -> int:
    with open_store(url) as store:
        return store.count()


def test_sigterm_drains_jobs_campaign_and_resume_completes(tmp_path, capsys):
    spec = tmp_path / "study.json"
    Study("drain").axis("s", list(range(2, 14))).fix(
        uid=2213, scale=48, reps=1, alpha=1 / 16.0
    ).save(spec)
    url = f"sqlite:{tmp_path / 'drain.db'}"
    run = ["study", "run", str(spec), "--jobs", "2", "--store", url, "--progress", "none"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    # Injected hangs pad every task by 0.5 s, so the campaign is still
    # running when the first batch lands and the signal goes out.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *run, "--chaos", "hang=1.0,hang_s=0.5,seed=1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 120
    while _count(url) == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert "interrupted" in err
    stored = [r for r in open_store(url).iter_records() if r.get("kind") is None]
    assert 0 < len(stored) < 12  # drained mid-campaign

    assert main(["store", "verify", url]) == 0
    capsys.readouterr()
    assert main([*run, "--resume"]) == 0
    resumed = capsys.readouterr().out
    assert main(["study", "run", str(spec), "--jobs", "1", "--progress", "none"]) == 0
    assert resumed == capsys.readouterr().out
