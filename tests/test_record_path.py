"""One pass per record: seal once, verify the bytes read, commit per chunk.

Four promises of the record path (docs/DESIGN.md §1, §9):

- the text-level seal helpers the stores use write and judge exactly
  what ``seal_record`` / ``check_record`` would (property test);
- a task is hashed once per process, a record serialized once per
  append and never re-serialized on read (exact work counters);
- ``append_many`` is the single write path — the same bytes as N single
  appends, all-or-nothing on a bad batch, crash-safe between chunk
  arrival and commit;
- stores written before this code read, resume, verify and report
  identically, and today's stores pass the old canonical check.
"""

import hashlib
import io
import json
import multiprocessing
import os
import pathlib
import shutil
import signal
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Study
from repro.api.cli import main
from repro.api.report import format_summary, summarize_store
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign import executor
from repro.campaign.progress import ProgressReporter
from repro.obs.metrics import METRICS
from repro.store import (
    ResultStore,
    ShardedStore,
    SqliteStore,
    compact_store,
    migrate_store,
    open_store,
    repair_store,
    verify_store,
)
from repro.store.integrity import (
    check_record,
    open_sealed,
    seal_record,
    seal_text,
    strip_seal,
)

BACKENDS = {
    "jsonl": lambda tmp: ResultStore(tmp / "r.jsonl"),
    "sharded": lambda tmp: ShardedStore(tmp / "r.d"),
    "sqlite": lambda tmp: SqliteStore(tmp / "r.db"),
}


def stored_texts(store) -> "list[str]":
    """Every record text a store holds, exactly as written (no newline),
    in a backend-independent order."""
    path = pathlib.Path(store.path)
    if isinstance(store, SqliteStore):
        with sqlite3.connect(path) as conn:
            return sorted(body for (body,) in conn.execute("SELECT body FROM records"))
    files = [path] if path.is_file() else sorted(path.glob("shard-*.jsonl"))
    return sorted(ln for f in files for ln in f.read_text().splitlines())


# ----------------------------------------------------------------------
# (1) the text-level seal is the dict-level seal
# ----------------------------------------------------------------------
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=False)
    | st.sampled_from([1e-300, -0.0, 1.7976931348623157e308, 5e-324])
    | st.text(max_size=8)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_records = st.dictionaries(
    st.text(max_size=6) | st.sampled_from(["hash", "crc", "stats"]), _values, max_size=6
)


def same_judgement(text: str) -> "tuple[dict, bool | None]":
    """``open_sealed(text)``, after holding it to ``check_record`` on the
    parsed text — same record (to the byte), same verdict."""
    got, want = open_sealed(text), check_record(json.loads(text))
    assert got == want
    assert json.dumps(got[0]) == json.dumps(want[0])  # -0.0 == 0.0, so compare text too
    return got


class TestSealText:
    @given(_records)
    @example({})
    @example({"crc": "1:deadbeef"})
    @example({"hash": "h", "crc": 7, "x": [1e-300, -0.0, 10**30, "☃\U0001f600"]})
    @settings(max_examples=300, deadline=None)
    def test_one_serialization_writes_the_same_bytes(self, record):
        text = seal_text(record)
        assert text == json.dumps(seal_record(record))
        assert same_judgement(text) == (strip_seal(record), True)

    @given(_records)
    @example({})
    @settings(max_examples=200, deadline=None)
    def test_foreign_unsealed_and_unknown_schema_lines_fall_back(self, record):
        sealed = seal_record(record)
        # Another writer's spacing or key order: the raw bytes no longer
        # hash to the seal, the canonical rule still decides.
        respaced = json.dumps(sealed, separators=(",", ":"))
        assert same_judgement(respaced) == (strip_seal(record), True)
        same_judgement(json.dumps(sealed, indent=1))
        same_judgement(json.dumps(dict(reversed(sealed.items()))))
        same_judgement(json.dumps(sealed, sort_keys=True))
        body = strip_seal(record)
        assert same_judgement(json.dumps(body)) == (body, None)
        future = seal_text(record).replace(', "crc": "1:', ', "crc": "2:')
        if future != seal_text(record):  # "{}" seals without the comma
            assert same_judgement(future) == (body, None)

    def test_every_single_character_corruption_is_judged_canonically(self):
        text = seal_text({"hash": "ab", "n": 12, "t": [1.5, -0.0], "u": "é"})
        assert len(text) < 80
        parsed = judged_false = 0
        for at in range(len(text)):
            for ch in map(chr, range(32, 127)):
                if ch == text[at]:
                    continue
                bad = text[:at] + ch + text[at + 1:]
                try:
                    json.loads(bad)
                except ValueError:
                    with pytest.raises(ValueError):
                        open_sealed(bad)
                    continue
                parsed += 1
                judged_false += same_judgement(bad)[1] is False
        # Plenty of corruptions still parse; none passes its seal.
        assert parsed > 100 and judged_false > 50

    def test_trailing_newline_is_not_part_of_the_sealed_bytes(self, tmp_path):
        # ResultStore strips the "\n" off each line it hands the decoder;
        # were it left on, the raw check would fail and every line would
        # take the slow path.
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"hash": "a", "x": 1.5})
        store.close()
        (where, text, key), = store._entries()
        assert where.endswith("r.jsonl:1") and not text.endswith("\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(json, "dumps", _forbidden("json.dumps on the read path"))
            assert store._decode(where, text, key) == ({"hash": "a", "x": 1.5}, True)

    def test_non_dict_json_is_left_for_the_store_to_refuse(self):
        assert open_sealed("[1, 2]") == ([1, 2], None)
        with pytest.raises(ValueError):
            open_sealed('{"hash": "a"')


def _forbidden(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"unexpected {what}")

    return fail


# ----------------------------------------------------------------------
# (2) exact work counters: hash once, serialize once, never on read
# ----------------------------------------------------------------------
def _grid_study() -> Study:
    """60 one-solve tasks of a few iterations each (the ledger's
    ``grid_store`` shape in miniature)."""
    return (
        Study("grid")
        .axis("scheme", ["abft-detection", "abft-correction"])
        .axis("mtbf", [16, 32, 64, 128, 256])
        .axis("s", range(1, 7))
        .fix(uid=1312, scale=128, reps=1, eps=0.03, d=1)
    )


class TestWorkCounters:
    def test_hash_once_serialize_once_verify_without_reserializing(
        self, tmp_path, monkeypatch
    ):
        calls = {"sha256": 0, "dumps": 0}
        real_sha256, real_dumps = hashlib.sha256, json.dumps

        def sha256(*args, **kwargs):
            calls["sha256"] += 1
            return real_sha256(*args, **kwargs)

        def dumps(*args, **kwargs):
            calls["dumps"] += 1
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        monkeypatch.setattr(json, "dumps", dumps)
        url = f"sqlite:{tmp_path / 'grid.db'}"

        tasks = _grid_study().tasks()
        assert len(tasks) == 60
        fresh = run_campaign(tasks, jobs=2, store=url)
        # Resume match, prior lookup, chunking, delivery: one digest per
        # task; 60 result records + 1 telemetry record: one dumps each.
        assert calls == {"sha256": 60, "dumps": 61}

        # A resume as a new process would see it: freshly compiled tasks.
        again = _grid_study().tasks()
        assert all(t._hash is None for t in again)
        resumed = run_campaign(again, jobs=2, store=url)
        assert resumed == fresh
        assert calls == {"sha256": 120, "dumps": 61}

        # ... and the report pass reads every record without a dumps.
        assert summarize_store(url).records == 60
        assert verify_store(url)["sealed"] == 61
        assert calls == {"sha256": 120, "dumps": 61}

    def test_worker_inherits_the_parents_digest(self):
        import copy
        import pickle
        from dataclasses import asdict, replace

        task = _grid_study().tasks()[0]
        bare = repr(task), asdict(task), task.to_json()
        digest = task.task_hash()
        assert task._hash == digest
        # Not a field: identity, repr and the JSON views never see it.
        assert (repr(task), asdict(task), task.to_json()) == bare
        assert "_hash" not in repr(task) and "_hash" not in task.to_json()
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task and clone._hash == digest
        assert copy.copy(task)._hash == digest
        moved = replace(task, s=task.s + 1)
        assert moved._hash is None and moved.task_hash() != digest
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hashlib, "sha256", _forbidden("second digest of one instance"))
            assert clone.task_hash() == task.task_hash() == digest


# ----------------------------------------------------------------------
# (3) append_many: the single write path
# ----------------------------------------------------------------------
def _records(n=7):
    return [
        {"hash": f"{i:02x}" * 4, "task": {"uid": i, "reps": 2},
         "stats": {"mean_time": 1.5 + i / 7, "min_time": 1.0, "max_time": 9.0,
                   "convergence_rate": 1.0, "reps": 2}}
        for i in range(n)
    ] + [{"hash": "telemetry:abc", "kind": "telemetry", "counters": {"x": 1}, "timers": {}}]


@pytest.mark.parametrize("kind", sorted(BACKENDS))
class TestAppendMany:
    def test_same_bytes_and_report_as_single_appends(self, kind, tmp_path):
        one, many = tmp_path / "one", tmp_path / "many"
        one.mkdir(), many.mkdir()
        singles, batched = BACKENDS[kind](one), BACKENDS[kind](many)
        for rec in _records():
            singles.append(rec)
        batched.append_many(_records()[:3])
        batched.append_many(iter(_records()[3:]))  # any iterable
        singles.close(), batched.close()
        assert list(batched.iter_records()) == list(singles.iter_records())
        assert stored_texts(batched) == stored_texts(singles)
        assert verify_store(batched)["sealed"] == len(_records())
        reports = [
            format_summary(summarize_store(s)).replace(str(s.url), "STORE")
            for s in (singles, batched)
        ]
        assert reports[0] == reports[1]

    def test_a_record_without_hash_rejects_the_whole_batch(self, kind, tmp_path):
        store = BACKENDS[kind](tmp_path)
        store.append_many(_records()[:2])
        bad = _records()[2:5] + [{"task": {}}] + _records()[5:]
        with pytest.raises(ValueError, match="'hash'"):
            store.append_many(bad)
        store.close()
        assert [r["hash"] for r in store.iter_records()] == [
            r["hash"] for r in _records()[:2]
        ]
        assert verify_store(store)["corrupt"] == 0

    def test_parent_killed_between_chunk_arrival_and_commit(self, kind, tmp_path):
        """The first batch commits; SIGKILL lands as the second arrives.
        The store verifies clean and a resume recomputes exactly the
        tasks that were not committed."""
        url = BACKENDS[kind](tmp_path).url
        tasks = CampaignSpec(**_fixture_spec()).expand()
        proc = multiprocessing.Process(target=_killed_at_second_chunk, args=(url,))
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL

        stored = {r["hash"] for r in open_store(url).iter_records()}
        # The first two batches go to the two workers: tasks[:2] and
        # tasks[2:3] (guided sizes 2, 1); one whole batch committed,
        # whichever finished first.
        assert stored in ({t.task_hash() for t in tasks[:2]}, {tasks[2].task_hash()})
        scan = verify_store(url)
        assert (scan["records"], scan["corrupt"], scan["torn_tail"]) == (len(stored), 0, False)

        before = METRICS.count("campaign.tasks")
        records = run_campaign(tasks, jobs=1, store=url)
        assert METRICS.count("campaign.tasks") - before == len(tasks) - len(stored)
        assert records == run_campaign(tasks, jobs=1)
        assert verify_store(url)["corrupt"] == 0


def _killed_at_second_chunk(url):
    """Child: a 2-worker campaign whose process group dies the moment
    the second finished batch reaches ``append_many``."""
    os.setsid()  # the fleet workers die with us, as in a machine crash
    store = open_store(url)
    cls, real, seen = type(store), type(store).append_many, []

    def tapped(self, records):
        seen.append(1)
        if len(seen) == 2:
            os.killpg(0, signal.SIGKILL)
        real(self, records)

    cls.append_many = tapped
    run_campaign(CampaignSpec(**_fixture_spec()).expand(), jobs=2, store=store)


class TestDeliveryPaths:
    def test_pool_batches_serial_appends_one_by_one(
        self, tmp_path
    ):
        tasks = CampaignSpec(**_fixture_spec()).expand()

        class Tapped(ResultStore):
            def __init__(self, path):
                super().__init__(path)
                self.batches = []

            def append_many(self, records):
                records = list(records)
                self.batches.append(len(records))
                super().append_many(records)

        pool = Tapped(tmp_path / "pool.jsonl")
        pooled = run_campaign(tasks, jobs=2, store=pool)
        # Guided batches of ceil(remaining / (2 x workers)): 6 tasks on
        # 2 workers go out as 2, 1, 1, 1, 1 and land in completion
        # order; then the telemetry record.
        assert sorted(pool.batches[:-1]) == [1, 1, 1, 1, 2]
        assert pool.batches[-1] == 1
        serial = Tapped(tmp_path / "serial.jsonl")
        assert run_campaign(tasks, jobs=1, store=serial) == pooled
        assert serial.batches == [1] * 7

    def test_raising_task_propagates_and_delivered_records_persist_once(
        self, tmp_path, monkeypatch
    ):
        # Without retries a raising task propagates; every record
        # delivered before it is stored exactly once.
        tasks = CampaignSpec(**_fixture_spec()).expand()
        poison = tasks[4].task_hash()
        real = executor.execute_task

        def flaky(task, **kwargs):
            if task.task_hash() == poison:
                raise RuntimeError("boom")
            return real(task, **kwargs)

        monkeypatch.setattr(executor, "execute_task", flaky)
        url = tmp_path / "s.jsonl"
        progress = ProgressReporter(len(tasks), stream=io.StringIO())
        with pytest.raises(RuntimeError, match="boom"):
            run_campaign(tasks, jobs=2, store=url, progress=progress)
        texts = stored_texts(ResultStore(url))
        assert len(texts) == len(set(texts)) == progress.fresh
        hashes = {json.loads(t)["hash"] for t in texts}
        assert poison not in hashes
        assert hashes <= {t.task_hash() for t in tasks}


# ----------------------------------------------------------------------
# (4) compatibility, both directions
# ----------------------------------------------------------------------
GOLDEN = pathlib.Path(__file__).parent / "golden" / "stores"


def _fixture_spec() -> dict:
    spec = json.loads((GOLDEN / "spec.json").read_text())
    return {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}


def _fixture_copy(kind: str, tmp_path):
    """A scratch copy of the parent-written fixture store (reading a
    SQLite store in place would leave WAL files in the source tree)."""
    name = {"jsonl": "parent.jsonl", "sharded": "parent.d", "sqlite": "parent.db"}[kind]
    src, dst = GOLDEN / name, tmp_path / name
    shutil.copytree(src, dst) if src.is_dir() else shutil.copy(src, dst)
    return open_store(str(dst) if kind == "jsonl" else f"{kind}:{dst}")


@pytest.mark.parametrize("kind", sorted(BACKENDS))
class TestParentWrittenStores:
    def test_verifies_reports_and_resumes_identically(
        self, kind, tmp_path, monkeypatch, capsys
    ):
        store = _fixture_copy(kind, tmp_path)
        before = stored_texts(store)
        scan = verify_store(store)
        assert (scan["sealed"], scan["unsealed"], scan["corrupt"], scan["torn_tail"]) == (
            7, 0, 0, False)

        assert main(["report", store.url]) == 0
        report = capsys.readouterr().out.replace(str(store.url), "STORE")
        assert report == (GOLDEN / "report.txt").read_text()

        # Every task is served from the store: nothing runs, nothing is
        # appended, and the records are the ones a fresh run computes.
        tasks = CampaignSpec(**_fixture_spec()).expand()
        expected = run_campaign(tasks, jobs=1)
        monkeypatch.setattr(executor, "execute_task", _forbidden("task execution on resume"))
        assert run_campaign(tasks, jobs=2, store=store) == expected
        store.close()
        assert stored_texts(store) == before

    def test_new_code_writes_the_parents_bytes(self, kind, tmp_path):
        fixture = _fixture_copy(kind, tmp_path)
        out = tmp_path / "rewritten"
        out.mkdir()
        rewritten = BACKENDS[kind](out)
        records = list(fixture.iter_records())
        rewritten.append_many(records[:4])
        for rec in records[4:]:
            rewritten.append(rec)
        rewritten.close()
        assert stored_texts(rewritten) == stored_texts(fixture)
        if kind == "jsonl":  # same order too: the file itself is identical
            assert rewritten.path.read_bytes() == fixture.path.read_bytes()
        # ... and the parent's reader — canonical re-serialization of the
        # parsed record — accepts every byte today's writer produced.
        for text in stored_texts(rewritten):
            body, verdict = check_record(json.loads(text))
            assert verdict is True and json.dumps(seal_record(body)) == text

    def test_compact_repair_migrate(self, kind, tmp_path):
        fixture = _fixture_copy(kind, tmp_path)
        results = [r for r in fixture.iter_records() if r.get("kind") is None]
        assert len(results) == 6

        assert compact_store(fixture, tmp_path / "compact.jsonl") == 6
        assert list(ResultStore(tmp_path / "compact.jsonl").iter_records()) == results
        assert repair_store(fixture, f"sqlite:{tmp_path / 'repair.db'}") == (7, 0)
        assert migrate_store(fixture, f"sharded:{tmp_path / 'moved.d'}") == 7
        moved = ShardedStore(tmp_path / "moved.d")
        assert moved.load() == fixture.load()
        # The migrated shards are the parent's own migration, byte for byte.
        assert stored_texts(moved) == stored_texts(
            ShardedStore(GOLDEN / "parent.d"))


def test_a_sqlite_store_with_the_old_leases_table_still_opens(tmp_path, monkeypatch, capsys):
    # parent.db was written while sqlite: stores carried a lease board,
    # so its `leases` table is the old layout (never regenerate it).  It
    # opens, reports and resumes like any store, `store info` says
    # nothing about leases, and nothing reads or drops the table.
    store = _fixture_copy("sqlite", tmp_path)

    def tables():
        conn = sqlite3.connect(store.path)
        try:
            rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            return {name for (name,) in rows}
        finally:
            conn.close()

    assert tables() == {"records", "leases"}
    assert main(["store", "info", store.url]) == 0
    info = capsys.readouterr().out
    assert "records: 7" in info and "lease" not in info
    assert main(["report", store.url]) == 0
    report = capsys.readouterr().out.replace(str(store.url), "STORE")
    assert report == (GOLDEN / "report.txt").read_text()
    tasks = CampaignSpec(**_fixture_spec()).expand()
    monkeypatch.setattr(executor, "execute_task", _forbidden("task execution on resume"))
    assert len(run_campaign(tasks, jobs=2, store=store)) == len(tasks)
    store.close()
    assert tables() == {"records", "leases"}
