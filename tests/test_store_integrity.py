"""Record seals (CRC32), verify/repair/compact, and crash salvage.

Covers the store half of docs/DESIGN.md §10: every JSONL-family append
is checksummed, corruption is detected and raised (naming ``repro store
repair``), torn tails left by killed writers are salvaged,
and the ``repro store verify | repair | compact`` tooling turns a
damaged store back into a clean one that resumes with zero recompute
of the surviving records.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.api.cli import main
from repro.campaign import CampaignSpec, run_campaign
from repro.store import (
    ResultStore,
    ShardedStore,
    SqliteStore,
    StoreError,
    StoreIntegrityWarning,
    compact_store,
    open_store,
    repair_store,
    verify_store,
)
from repro.store.integrity import (
    CRC_SCHEMA,
    check_record,
    seal_record,
    strip_seal,
)


def _record(h, **extra):
    return {"hash": h, "task": {"uid": 1}, "stats": {"mean_time": 1.5}, **extra}


BACKENDS = {
    "jsonl": lambda tmp: ResultStore(tmp / "r.jsonl"),
    "sharded": lambda tmp: ShardedStore(tmp / "r.d"),
    "sqlite": lambda tmp: SqliteStore(tmp / "r.db"),
}


@pytest.fixture(params=sorted(BACKENDS))
def any_store(request, tmp_path):
    return BACKENDS[request.param](tmp_path)


@pytest.fixture(scope="module")
def small_tasks():
    return CampaignSpec(
        kind="table1", scale=48, reps=1, uids=(2213,), s_span=0
    ).expand()


@pytest.fixture(scope="module")
def serial_records(small_tasks):
    return run_campaign(small_tasks, jobs=1)


# ----------------------------------------------------------------------
# the seal itself
# ----------------------------------------------------------------------
class TestSeal:
    def test_seal_is_final_key_and_verifies(self):
        rec = _record("aaa")
        sealed = seal_record(rec)
        assert list(sealed)[-1] == "crc"
        assert sealed["crc"].startswith(f"{CRC_SCHEMA}:")
        body, verdict = check_record(sealed)
        assert verdict is True and body == rec

    def test_reseal_is_idempotent(self):
        sealed = seal_record(_record("aaa"))
        assert seal_record(sealed) == sealed

    def test_tamper_is_detected(self):
        sealed = seal_record(_record("aaa"))
        tampered = dict(sealed)
        tampered["stats"] = {"mean_time": 9.5}
        body, verdict = check_record(tampered)
        assert verdict is False and "crc" not in body

    def test_unsealed_record_is_unjudged(self):
        rec = _record("aaa")
        assert check_record(rec) == (rec, None)

    def test_unknown_seal_version_is_stripped_not_judged(self):
        rec = _record("aaa")
        rec["crc"] = "999:deadbeef"
        body, verdict = check_record(rec)
        assert verdict is None and body == _record("aaa")
        assert strip_seal(rec) == _record("aaa")

    def test_strip_seal_passthrough_without_crc(self):
        rec = _record("aaa")
        assert strip_seal(rec) is rec


class TestSealedRoundTrip:
    def test_loaded_records_equal_appended(self, any_store):
        recs = [_record("aaa"), _record("bbb", kind="quarantine")]
        for rec in recs:
            any_store.append(rec)
        loaded = any_store.load()
        assert loaded == {r["hash"]: r for r in recs}
        assert all("crc" not in r for r in loaded.values())

    def test_seal_written_to_disk_jsonl(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("aaa"))
        line = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[0])
        assert line["crc"].startswith(f"{CRC_SCHEMA}:")

    def test_preseal_stores_still_read(self, tmp_path):
        # A store written before checksumming existed: plain lines.
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(_record("aaa")) + "\n")
        store = ResultStore(path)
        assert store.load() == {"aaa": _record("aaa")}
        report = store.verify()
        assert report["unsealed"] == 1 and report["corrupt"] == 0


# ----------------------------------------------------------------------
# bit rot per backend contract
# ----------------------------------------------------------------------
def _rot_jsonl_line(path: pathlib.Path, index: int = 0) -> None:
    """Flip a payload digit on line ``index`` without breaking JSON —
    the CRC must be what catches it."""
    lines = path.read_text().splitlines()
    assert '"mean_time": 1.5' in lines[index]
    lines[index] = lines[index].replace('"mean_time": 1.5', '"mean_time": 9.5')
    path.write_text("".join(line + "\n" for line in lines))


def _corrupt_one(store, record_hash: str) -> None:
    """Rot the stored record ``record_hash`` in place, whatever the
    layout (the store must be closed)."""
    if isinstance(store, SqliteStore):
        import sqlite3

        conn = sqlite3.connect(store.path)
        with conn:
            conn.execute(
                "UPDATE records SET body = replace(body, '1.5', '9.5') WHERE hash = ?",
                (record_hash,),
            )
        conn.close()
        return
    if isinstance(store, ShardedStore):
        path = store.path / f"shard-{store.shard_index(record_hash):02x}.jsonl"
    else:
        path = store.path
    lines = path.read_text().splitlines()
    _rot_jsonl_line(path, next(
        i for i, line in enumerate(lines) if line.startswith(f'{{"hash": "{record_hash}"')
    ))


class TestBitRot:
    def test_jsonl_strict_raises(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        _rot_jsonl_line(tmp_path / "r.jsonl", 0)
        with pytest.raises(StoreError, match="checksum"):
            list(ResultStore(tmp_path / "r.jsonl").iter_records())

    def test_jsonl_iter_intact_skips_and_counts(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        _rot_jsonl_line(tmp_path / "r.jsonl", 0)
        fresh = ResultStore(tmp_path / "r.jsonl")
        with pytest.warns(StoreIntegrityWarning, match="skipping corrupt"):
            kept = [r["hash"] for r in fresh.iter_intact()]
        assert kept == ["bbb"] and fresh.corrupt_skipped == 1

    def test_sharded_strict_raises(self, tmp_path):
        # Shards read as JSONL does: bit rot raises, and only repair's
        # iter_intact skips (and counts) the rotten line.
        store = ShardedStore(tmp_path / "r.d")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        shard = next(
            p
            for p in sorted((tmp_path / "r.d").glob("shard-*.jsonl"))
            if '"aaa"' in p.read_text()
        )
        _rot_jsonl_line(shard, 0)
        fresh = ShardedStore(tmp_path / "r.d")
        with pytest.raises(StoreError, match="checksum.*repro store repair"):
            fresh.load()
        with pytest.warns(StoreIntegrityWarning, match="skipping corrupt"):
            assert [r["hash"] for r in fresh.iter_intact()] == ["bbb"]
        assert fresh.corrupt_skipped == 1

    def test_sqlite_strict_raises_but_intact_skips(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        store.close()
        import sqlite3

        conn = sqlite3.connect(tmp_path / "r.db")
        conn.execute(
            "UPDATE records SET body = replace(body, '1.5', '9.5') "
            "WHERE hash = 'aaa'"
        )
        conn.commit()
        conn.close()
        fresh = SqliteStore(tmp_path / "r.db")
        with pytest.raises(StoreError, match="checksum.*repro store repair"):
            list(fresh.iter_records())
        # transactional appends leave no benign crash footprint, so
        # corruption raises on the normal path; repair's intact walk
        # skips, warns and counts instead, as the JSONL layouts do.
        with pytest.warns(StoreIntegrityWarning, match="skipping corrupt"):
            assert [r["hash"] for r in fresh.iter_intact()] == ["bbb"]
        assert fresh.corrupt_skipped == 1
        assert fresh.verify()["corrupt"] == 1

    def test_skip_warning_points_at_the_caller(self, any_store, tmp_path):
        # One degraded mode: whatever the layout, the warning names the
        # line that iterated iter_intact, not the store's own code.
        any_store.append(_record("aaa"))
        any_store.close()
        _corrupt_one(any_store, "aaa")
        with pytest.warns(StoreIntegrityWarning) as caught:
            assert list(any_store.iter_intact()) == []
        assert [w.filename for w in caught] == [__file__]
        assert any_store.corrupt_skipped == 1


# ----------------------------------------------------------------------
# verify / repair / compact
# ----------------------------------------------------------------------
class TestVerifyStore:
    def test_healthy_store(self, any_store):
        any_store.append(_record("aaa"))
        any_store.append(_record("bbb"))
        report = verify_store(any_store)
        assert report["records"] == 2
        assert report["sealed"] == 2 and report["unsealed"] == 0
        assert report["corrupt"] == 0 and report["torn_tail"] is False
        assert report["url"] == any_store.url

    def test_torn_tail_is_reported(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("aaa"))
        with open(tmp_path / "r.jsonl", "ab") as fh:
            fh.write(b'{"hash": "torn", "task"')
        report = verify_store(f"{tmp_path / 'r.jsonl'}")
        assert report["torn_tail"] is True and report["records"] == 1

    def test_corrupt_is_counted(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        _rot_jsonl_line(tmp_path / "r.jsonl", 1)
        report = verify_store(str(tmp_path / "r.jsonl"))
        assert report["corrupt"] == 1 and report["records"] == 1


class TestCompactStore:
    def _populated(self, tmp_path):
        src = ResultStore(tmp_path / "src.jsonl")
        src.append(_record("aaa", v=1))
        src.append(_record("bbb"))
        src.append(_record("aaa", v=2))  # duplicate: last wins
        src.append({"hash": "telemetry:x", "kind": "telemetry", "counters": {}})
        src.append(_record("ccc", kind="quarantine"))
        return src

    def test_drop_quarantined_unsettles_the_task(self, tmp_path):
        self._populated(tmp_path)
        kept = compact_store(
            str(tmp_path / "src.jsonl"),
            str(tmp_path / "dst.jsonl"),
            drop_quarantined=True,
        )
        assert kept == 2
        assert set(ResultStore(tmp_path / "dst.jsonl").load()) == {"aaa", "bbb"}

    def test_drop_quarantined_removes_earlier_record_too(self, tmp_path):
        src = ResultStore(tmp_path / "src.jsonl")
        src.append(_record("aaa", v=1))
        src.append(_record("aaa", kind="quarantine"))
        compact_store(
            str(tmp_path / "src.jsonl"),
            str(tmp_path / "dst.jsonl"),
            drop_quarantined=True,
        )
        assert ResultStore(tmp_path / "dst.jsonl").load() == {}

    def test_drops_partials_of_settled_tasks_only(self, tmp_path):
        from repro.campaign.executor import make_partial_record

        per_rep = {
            "times": [1.0], "iterations": [3], "rollbacks": [0],
            "corrections": [0], "faults": [0], "converged": [True],
        }
        src = ResultStore(tmp_path / "src.jsonl")
        # "aaa" finished after its checkpoint; "bbb" is still in flight.
        src.append(make_partial_record("aaa", per_rep))
        src.append(_record("aaa"))
        src.append(make_partial_record("bbb", per_rep))
        kept = compact_store(
            str(tmp_path / "src.jsonl"), str(tmp_path / "dst.jsonl")
        )
        assert kept == 2
        loaded = ResultStore(tmp_path / "dst.jsonl").load()
        assert set(loaded) == {"aaa", "partial:bbb"}

    def test_drop_quarantined_revives_the_partial_checkpoint(self, tmp_path):
        from repro.campaign.executor import make_partial_record

        per_rep = {
            "times": [1.0], "iterations": [3], "rollbacks": [0],
            "corrections": [0], "faults": [0], "converged": [True],
        }
        src = ResultStore(tmp_path / "src.jsonl")
        src.append(make_partial_record("aaa", per_rep))
        src.append(_record("aaa", kind="quarantine"))
        # Keeping the quarantine settles the task: the checkpoint dies.
        compact_store(str(tmp_path / "src.jsonl"), str(tmp_path / "q.jsonl"))
        assert set(ResultStore(tmp_path / "q.jsonl").load()) == {"aaa"}
        # Dropping it un-settles the task: the checkpoint survives, so
        # the retried task resumes from its prefix.
        compact_store(
            str(tmp_path / "src.jsonl"), str(tmp_path / "dst.jsonl"),
            drop_quarantined=True,
        )
        assert set(ResultStore(tmp_path / "dst.jsonl").load()) == {
            "partial:aaa"
        }

    def test_refuses_populated_destination(self, tmp_path):
        self._populated(tmp_path)
        ResultStore(tmp_path / "dst.jsonl").append(_record("zzz"))
        with pytest.raises(ValueError, match="already has records"):
            compact_store(
                str(tmp_path / "src.jsonl"), str(tmp_path / "dst.jsonl")
            )

    def test_refuses_self_target(self, tmp_path):
        self._populated(tmp_path)
        with pytest.raises(ValueError, match="onto itself"):
            compact_store(
                str(tmp_path / "src.jsonl"), str(tmp_path / "src.jsonl")
            )

    def test_cross_backend_compaction(self, tmp_path):
        self._populated(tmp_path)
        kept = compact_store(
            str(tmp_path / "src.jsonl"), f"sqlite:{tmp_path / 'dst.db'}"
        )
        assert kept == 3
        assert set(open_store(f"sqlite:{tmp_path / 'dst.db'}").load()) == {
            "aaa",
            "bbb",
            "ccc",
        }


# ----------------------------------------------------------------------
# the CLI face
# ----------------------------------------------------------------------
class TestStoreCli:
    def test_verify_healthy_exits_0(self, tmp_path, capsys):
        ResultStore(tmp_path / "r.jsonl").append(_record("aaa"))
        assert main(["store", "verify", str(tmp_path / "r.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "corrupt: 0" in out and "sealed: 1" in out

    def test_verify_corrupt_exits_1_and_json(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        _rot_jsonl_line(tmp_path / "r.jsonl", 0)
        assert main(["store", "verify", "--json", str(tmp_path / "r.jsonl")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] == 1 and report["records"] == 1

    def test_compact_and_repair_commands(self, tmp_path, capsys):
        src = ResultStore(tmp_path / "src.jsonl")
        src.append(_record("aaa", v=1))
        src.append(_record("aaa", v=2))
        src.append({"hash": "telemetry:x", "kind": "telemetry", "counters": {}})
        src.append(_record("qqq", kind="quarantine"))
        assert (
            main(
                [
                    "store",
                    "compact",
                    "--drop-quarantined",
                    str(tmp_path / "src.jsonl"),
                    str(tmp_path / "dst.jsonl"),
                ]
            )
            == 0
        )
        assert "compacted to 1 record(s)" in capsys.readouterr().out
        assert set(ResultStore(tmp_path / "dst.jsonl").load()) == {"aaa"}

        _rot_jsonl_line(tmp_path / "src.jsonl", 1)
        assert (
            main(
                [
                    "store",
                    "repair",
                    str(tmp_path / "src.jsonl"),
                    str(tmp_path / "fixed.jsonl"),
                ]
            )
            == 0
        )
        assert "dropped 1 corrupt" in capsys.readouterr().out

    def test_compact_refuses_populated_dst_exits_2(self, tmp_path, capsys):
        ResultStore(tmp_path / "src.jsonl").append(_record("aaa"))
        ResultStore(tmp_path / "dst.jsonl").append(_record("bbb"))
        code = main(
            ["store", "compact", str(tmp_path / "src.jsonl"), str(tmp_path / "dst.jsonl")]
        )
        assert code == 2
        assert "already has records" in capsys.readouterr().err

    def test_bare_store_action_usage_error(self, capsys):
        assert main(["store"]) == 2
        assert "verify" in capsys.readouterr().err


# ----------------------------------------------------------------------
# SIGKILLed concurrent writer: salvage + zero-recompute resume
# ----------------------------------------------------------------------
def _writer_main(url, kind, tasks, sentinel):
    """Child: persist a few real records, leave a torn half-record the
    way a process dying mid-``write()`` would, then hang until killed."""
    from repro.campaign import run_campaign

    run_campaign(tasks, jobs=1, store=url)
    target = None
    if kind == "jsonl":
        target = pathlib.Path(url)
    elif kind == "sharded":
        root = pathlib.Path(url.partition(":")[2])
        target = sorted(root.glob("shard-*.jsonl"))[0]
    if target is not None:
        with open(target, "ab") as fh:
            fh.write(b'{"hash": "torn-mid-write", "task"')  # no newline
    pathlib.Path(sentinel).touch()
    time.sleep(60)


class TestKilledWriterSalvage:
    @pytest.mark.parametrize("kind", ["jsonl", "sharded", "sqlite"])
    def test_salvage_and_resume_recomputes_only_missing(
        self, kind, tmp_path, small_tasks, serial_records, monkeypatch
    ):
        if kind == "jsonl":
            url = str(tmp_path / "r.jsonl")
        elif kind == "sharded":
            url = f"sharded:{tmp_path / 'r.d'}"
        else:
            url = f"sqlite:{tmp_path / 'r.db'}"
        sentinel = tmp_path / "written"
        done = 3
        proc = multiprocessing.Process(
            target=_writer_main,
            args=(url, kind, small_tasks[:done], str(sentinel)),
        )
        proc.start()
        deadline = time.monotonic() + 120
        while not sentinel.exists() and time.monotonic() < deadline:
            assert proc.is_alive(), "writer died before finishing"
            time.sleep(0.02)
        assert sentinel.exists()
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(30)

        # Salvage: the torn tail never hides the intact records.
        expected = {
            t.task_hash(): r
            for t, r in zip(small_tasks[:done], serial_records[:done])
        }
        loaded = open_store(url).load()
        tasks_only = {
            h: r for h, r in loaded.items() if r.get("kind") != "telemetry"
        }
        assert tasks_only == expected

        # Resume: only the tasks the dead writer never finished run.
        import repro.campaign.executor as executor

        real = executor.execute_task
        executed = []

        def counting(task, **kw):
            executed.append(task.task_hash())
            return real(task, **kw)

        monkeypatch.setattr(executor, "execute_task", counting)
        records = run_campaign(small_tasks, jobs=1, store=url)
        assert records == serial_records
        assert sorted(executed) == sorted(
            t.task_hash() for t in small_tasks[done:]
        )


@pytest.mark.parametrize("kind", ["jsonl", "sharded"])
def test_torn_sealed_tail_is_counted_then_resumed(
    kind, tmp_path, small_tasks, serial_records, monkeypatch, capsys
):
    # The footprint of a writer dying mid-append: the first half of the
    # next record's sealed line, no newline, in the file (or shard)
    # that record routes to.
    import repro.campaign.executor as executor
    from repro.store.integrity import seal_text

    done = 3
    url = str(tmp_path / "r.jsonl") if kind == "jsonl" else f"sharded:{tmp_path / 'r.d'}"
    run_campaign(small_tasks[:done], jobs=1, store=url)
    torn = serial_records[done]
    if kind == "jsonl":
        target = tmp_path / "r.jsonl"
    else:
        index = ShardedStore(tmp_path / "r.d").shard_index(torn["hash"])
        target = tmp_path / "r.d" / f"shard-{index:02x}.jsonl"
    line = seal_text(torn).encode()
    with open(target, "ab") as fh:
        fh.write(line[: len(line) // 2])

    assert main(["store", "verify", url]) == 1
    assert "torn_tail: True" in capsys.readouterr().out

    real = executor.execute_task
    executed = []

    def counting(task, **kw):
        executed.append(task.task_hash())
        return real(task, **kw)

    monkeypatch.setattr(executor, "execute_task", counting)
    assert run_campaign(small_tasks, jobs=1, store=url) == serial_records
    assert sorted(executed) == sorted(t.task_hash() for t in small_tasks[done:])
    report = verify_store(url)
    # Both truncate the fragment on the next append to that file.
    assert report["torn_tail"] is False and report["corrupt"] == 0


class TestOldSharedFragment:
    """A ``sharded:`` store written while shards had several writers:
    a crash could leave a torn fragment terminated by a newline inside
    a shard, with records appended after it.  The strict reader raises
    on it and names the way out."""

    LOST = 3

    @pytest.fixture()
    def old_store(self, tmp_path, small_tasks, serial_records):
        from repro.store.integrity import seal_text

        url = f"sharded:{tmp_path / 'old.d'}"
        run_campaign(small_tasks[: self.LOST], jobs=1, store=url)
        lost = serial_records[self.LOST]
        index = ShardedStore(tmp_path / "old.d").shard_index(lost["hash"])
        line = seal_text(lost)
        with open(tmp_path / "old.d" / f"shard-{index:02x}.jsonl", "a") as fh:
            fh.write(line[: len(line) // 2] + "\n")  # the old salvage
        with open_store(url) as store:
            store.append_many(serial_records[self.LOST + 1:])
        return url

    def test_load_and_count_raise_naming_repair(self, old_store):
        store = open_store(old_store)
        with pytest.raises(StoreError, match="corrupt record.*repro store repair"):
            store.load()
        with pytest.raises(StoreError, match="repro store repair"):
            store.count()
        assert verify_store(old_store)["corrupt"] == 1

    def test_report_fails_naming_repair(self, old_store, capsys):
        assert main(["report", old_store]) == 1
        assert "repro store repair SRC DST" in capsys.readouterr().err

    def test_repair_keeps_every_intact_record(
        self, old_store, tmp_path, small_tasks, serial_records, capsys
    ):
        new = f"sqlite:{tmp_path / 'new.db'}"
        assert main(["store", "repair", old_store, new]) == 0
        assert "dropped 1 corrupt" in capsys.readouterr().out
        kept = {h: r for h, r in open_store(new).load().items()
                if r.get("kind") != "telemetry"}
        assert kept == {
            t.task_hash(): r for i, (t, r) in enumerate(zip(small_tasks, serial_records))
            if i != self.LOST
        }

    def test_resume_reruns_only_the_lost_task(
        self, old_store, tmp_path, small_tasks, serial_records, monkeypatch
    ):
        import repro.campaign.executor as executor

        new = f"sqlite:{tmp_path / 'new.db'}"
        repair_store(old_store, new)
        real = executor.execute_task
        executed = []

        def counting(task, **kw):
            executed.append(task.task_hash())
            return real(task, **kw)

        monkeypatch.setattr(executor, "execute_task", counting)
        assert run_campaign(small_tasks, jobs=1, store=new) == serial_records
        assert executed == [small_tasks[self.LOST].task_hash()]
