"""JSONL result store: round-trip, crash recovery, resume splitting."""

import json

import pytest

from repro.campaign import TaskSpec
from repro.store import ResultStore, StoreError


def _record(h, **extra):
    return {"hash": h, "task": {"uid": 1}, "stats": {"mean_time": 1.5}, **extra}


def _task(s):
    return TaskSpec("table1", uid=2213, scale=48, scheme="abft-detection",
                    alpha=1 / 16, s=s, labels=("table1", 2213, "s", s))


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with store:
            store.append(_record("aaa"))
            store.append(_record("bbb", n=512))
        loaded = store.load()
        assert set(loaded) == {"aaa", "bbb"}
        assert loaded["bbb"]["n"] == 512
        assert loaded["aaa"]["stats"]["mean_time"] == 1.5

    def test_floats_roundtrip_exactly(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily; repr round-trips
        store = ResultStore(tmp_path / "r.jsonl")
        with store:
            store.append({"hash": "x", "stats": {"mean_time": value}})
        assert store.load()["x"]["stats"]["mean_time"] == value

    def test_load_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == {}

    def test_duplicate_hash_last_wins(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with store:
            store.append(_record("aaa", rev=1))
            store.append(_record("aaa", rev=2))
        assert store.load()["aaa"]["rev"] == 2

    def test_record_without_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(ValueError):
            store.append({"stats": {}})


class TestCrashRecovery:
    def test_corrupt_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        with store:
            store.append(_record("aaa"))
            store.append(_record("bbb"))
        with open(path, "a") as fh:
            fh.write('{"hash": "ccc", "stats": {"mean_ti')  # torn write
        assert set(store.load()) == {"aaa", "bbb"}

    def test_trailing_partial_then_append_still_loads(self, tmp_path):
        # A resumed campaign appends after the torn line; the append
        # must first truncate the fragment, or it would become a
        # corrupt mid-file line and poison every later load.
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("aaa")) + "\n")
            fh.write('{"torn')
        store = ResultStore(path)
        assert set(store.load()) == {"aaa"}
        with store:
            store.append(_record("bbb"))
        assert set(store.load()) == {"aaa", "bbb"}
        assert '{"torn' not in path.read_text()

    def test_parseable_torn_tail_also_dropped(self, tmp_path):
        # A flush cut exactly at the closing brace leaves valid JSON
        # with no newline.  It must still count as torn: the next
        # append truncates it from disk, so load() serving it as a
        # cached record would silently lose a "completed" task.
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("aaa")) + "\n")
            fh.write(json.dumps(_record("bbb")))  # no trailing newline
        store = ResultStore(path)
        assert set(store.load()) == {"aaa"}
        with store:
            store.append(_record("ccc"))
        assert set(store.load()) == {"aaa", "ccc"}

    def test_corrupt_but_complete_final_line_raises(self, tmp_path):
        # A newline-terminated corrupt record is NOT the torn-write
        # footprint (appends write line+"\n" atomically from the
        # store's side); dropping it would hide real damage.
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("aaa")) + "\n")
            fh.write("garbage\n")
        with pytest.raises(StoreError, match="corrupt record"):
            ResultStore(path).load()

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("aaa")) + "\n\n")
            fh.write(json.dumps(_record("bbb")) + "\n")
        assert set(ResultStore(path).load()) == {"aaa", "bbb"}

    def test_corrupt_midfile_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("aaa")) + "\n")
            fh.write("garbage not json\n")
            fh.write(json.dumps(_record("bbb")) + "\n")
        with pytest.raises(StoreError, match="corrupt record"):
            ResultStore(path).load()

    def test_non_dict_line_midfile_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write("[1, 2, 3]\n")
            fh.write(json.dumps(_record("bbb")) + "\n")
        with pytest.raises(StoreError):
            ResultStore(path).load()


class TestStreamingReads:
    def test_iter_records_keeps_file_order_and_duplicates(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with store:
            store.append(_record("aaa", rev=1))
            store.append(_record("bbb"))
            store.append(_record("aaa", rev=2))
        seen = [(r["hash"], r.get("rev")) for r in store.iter_records()]
        assert seen == [("aaa", 1), ("bbb", None), ("aaa", 2)]

    def test_iter_records_drops_torn_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("aaa")) + "\n")
            fh.write('{"torn')
        assert [r["hash"] for r in ResultStore(path).iter_records()] == ["aaa"]

    def test_count_is_distinct_hashes(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with store:
            store.append(_record("aaa", rev=1))
            store.append(_record("bbb"))
            store.append(_record("aaa", rev=2))
        assert store.count() == 2 == len(store)

    def test_count_handles_foreign_key_order(self, tmp_path):
        # Hand-written records that don't start with the library's
        # '{"hash": "' prefix must fall back to a real parse.
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write('{"stats": {}, "hash": "zzz"}\n')
            fh.write(json.dumps(_record("aaa")) + "\n")
        assert ResultStore(path).count() == 2

    def test_count_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            fh.write("garbage\n")
        with pytest.raises(StoreError, match="corrupt record"):
            ResultStore(path).count()


class TestResume:
    def test_resume_splits_done_and_pending(self, tmp_path):
        tasks = [_task(s) for s in (1, 2, 3, 4)]
        store = ResultStore(tmp_path / "r.jsonl")
        with store:
            store.append(_record(tasks[0].task_hash()))
            store.append(_record(tasks[2].task_hash()))
        done, pending = store.resume(tasks)
        assert set(done) == {tasks[0].task_hash(), tasks[2].task_hash()}
        assert pending == [tasks[1], tasks[3]]

    def test_resume_empty_store(self, tmp_path):
        tasks = [_task(1)]
        done, pending = ResultStore(tmp_path / "r.jsonl").resume(tasks)
        assert done == {} and pending == tasks

    def test_len_counts_records(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert len(store) == 0
        with store:
            store.append(_record("aaa"))
        assert len(store) == 1
