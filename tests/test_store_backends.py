"""Pluggable store backends: protocol, URLs, shards, SQLite, migration."""

import json
import multiprocessing
import pathlib

import pytest

from repro.api.report import format_summary, summarize_store
from repro.campaign import CampaignSpec, run_campaign
from repro.store import (
    DEFAULT_STORE_SCHEME,
    ResultStore,
    ShardedStore,
    SqliteStore,
    StoreBackend,
    StoreError,
    available_store_schemes,
    migrate_store,
    open_store,
    parse_store_url,
    store_exists,
)


def _record(h, **extra):
    return {"hash": h, "task": {"uid": 1}, "stats": {"mean_time": 1.5}, **extra}


BACKENDS = {
    "jsonl": lambda tmp: ResultStore(tmp / "r.jsonl"),
    "sharded": lambda tmp: ShardedStore(tmp / "r.d"),
    "sqlite": lambda tmp: SqliteStore(tmp / "r.db"),
}


def _sharded(path, shards):
    """A new sharded store of ``shards`` partitions: the count lives in
    its ``store.json``."""
    path.mkdir()
    (path / "store.json").write_text(json.dumps(
        {"format": "repro-sharded-jsonl", "version": 1, "shards": shards}
    ))
    return ShardedStore(path)


@pytest.fixture(params=sorted(BACKENDS))
def any_store(request, tmp_path):
    return BACKENDS[request.param](tmp_path)


# ----------------------------------------------------------------------
# URL parsing and the registry
# ----------------------------------------------------------------------
class TestStoreUrls:
    def test_bare_path_is_jsonl(self):
        assert parse_store_url("results.jsonl") == ("jsonl", "results.jsonl")

    def test_pathlike_is_jsonl(self, tmp_path):
        scheme, path = parse_store_url(tmp_path / "r.jsonl")
        assert scheme == DEFAULT_STORE_SCHEME and path.endswith("r.jsonl")

    @pytest.mark.parametrize("scheme,cls", [
        ("jsonl", ResultStore), ("sharded", ShardedStore), ("sqlite", SqliteStore),
    ])
    def test_scheme_selects_backend(self, scheme, cls, tmp_path):
        store = open_store(f"{scheme}:{tmp_path / 'x'}")
        assert isinstance(store, cls)

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown store scheme"):
            parse_store_url("zzz:whatever")

    def test_scheme_without_path_raises(self):
        with pytest.raises(ValueError, match="missing a path"):
            parse_store_url("sqlite:")

    def test_single_letter_prefix_is_a_path(self):
        # Windows drive letters must never parse as schemes.
        assert parse_store_url(r"C:\campaign\r.jsonl")[0] == "jsonl"

    def test_open_store_passes_backends_through(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        assert open_store(store) is store

    def test_open_store_rejects_non_backends(self):
        with pytest.raises(TypeError):
            open_store(42)

    def test_url_roundtrips_through_open_store(self, any_store):
        again = open_store(any_store.url)
        assert type(again) is type(any_store)
        assert pathlib.Path(again.path) == pathlib.Path(any_store.path)

    def test_available_schemes_default_first(self):
        schemes = available_store_schemes()
        assert schemes[0] == DEFAULT_STORE_SCHEME
        assert schemes == ["jsonl", "sharded", "sqlite"]


# ----------------------------------------------------------------------
# the shared protocol contract, all backends
# ----------------------------------------------------------------------
class TestProtocolContract:
    def test_isinstance_store_backend(self, any_store):
        assert isinstance(any_store, StoreBackend)

    def test_construction_touches_no_disk(self, tmp_path):
        for make in BACKENDS.values():
            make(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_reads_of_absent_store_are_empty(self, any_store):
        assert list(any_store.iter_records()) == []
        assert any_store.load() == {}
        assert any_store.count() == 0 and len(any_store) == 0
        assert not store_exists(any_store.url)

    def test_append_load_roundtrip(self, any_store):
        with any_store as store:
            store.append(_record("aaa"))
            store.append(_record("bbb", n=512))
        loaded = any_store.load()
        assert set(loaded) == {"aaa", "bbb"}
        assert loaded["bbb"]["n"] == 512
        assert store_exists(any_store.url)

    def test_floats_roundtrip_exactly(self, any_store):
        value = 0.1 + 0.2
        with any_store as store:
            store.append({"hash": "x", "stats": {"mean_time": value}})
        assert any_store.load()["x"]["stats"]["mean_time"] == value

    def test_duplicate_hash_last_wins_first_position(self, any_store):
        with any_store as store:
            store.append(_record("aaa", rev=1))
            store.append(_record("bbb", rev=1))
            store.append(_record("aaa", rev=2))
        loaded = any_store.load()
        assert loaded["aaa"]["rev"] == 2
        assert list(loaded) == ["aaa", "bbb"]  # first-insertion order
        assert any_store.count() == 2

    def test_record_without_hash_rejected(self, any_store):
        with pytest.raises(ValueError):
            any_store.append({"stats": {}})

    def test_resume_splits_done_and_pending(self, any_store):
        tasks = CampaignSpec(
            kind="table1", scale=48, reps=1, uids=(2213,), s_span=1
        ).expand()[:4]
        with any_store as store:
            store.append(_record(tasks[0].task_hash()))
            store.append(_record(tasks[2].task_hash()))
        done, pending = any_store.resume(tasks)
        assert set(done) == {tasks[0].task_hash(), tasks[2].task_hash()}
        assert pending == [tasks[1], tasks[3]]

    def test_info_reports_layout(self, any_store):
        info = any_store.info()
        assert info["records"] == 0 and info["exists"] is False
        with any_store as store:
            store.append(_record("aaa"))
        info = any_store.info()
        assert info["records"] == 1 and info["exists"] is True
        assert info["url"] == any_store.url
        assert info["bytes"] > 0


# ----------------------------------------------------------------------
# sharded specifics
# ----------------------------------------------------------------------
class TestShardedStore:
    def test_records_route_to_their_hash_shard(self, tmp_path):
        store = _sharded(tmp_path / "r.d", 4)
        hashes = [f"{i:08x}ffff" for i in range(8)]
        with store:
            for h in hashes:
                store.append(_record(h))
        for h in hashes:
            shard = tmp_path / "r.d" / f"shard-{store.shard_index(h):02x}.jsonl"
            assert h in shard.read_text()
        assert set(store.load()) == set(hashes)

    def test_non_hex_hash_still_routes(self, tmp_path):
        store = ShardedStore(tmp_path / "r.d")
        with store:
            store.append(_record("telemetry:deadbeef"))
        assert store.count() == 1

    def test_shard_count_comes_from_metadata(self, tmp_path):
        with _sharded(tmp_path / "r.d", 4) as store:
            store.append(_record("aaa"))
        assert ShardedStore(tmp_path / "r.d").shards == 4

    def test_new_store_publishes_the_default_count(self, tmp_path):
        from repro.store import DEFAULT_SHARDS

        with ShardedStore(tmp_path / "r.d") as store:
            store.append(_record("aaa"))
        meta = json.loads((tmp_path / "r.d" / "store.json").read_text())
        assert meta["shards"] == DEFAULT_SHARDS == ShardedStore(tmp_path / "r.d").shards

    def test_shards_without_metadata_raise(self, tmp_path):
        (tmp_path / "r.d").mkdir()
        (tmp_path / "r.d" / "shard-00.jsonl").write_text(
            json.dumps(_record("aaa")) + "\n"
        )
        with pytest.raises(StoreError, match="store.json"):
            ShardedStore(tmp_path / "r.d").load()

    def test_torn_tail_salvage_is_per_shard(self, tmp_path):
        store = _sharded(tmp_path / "r.d", 4)
        hashes = [f"{i:08x}ffff" for i in range(8)]
        with store:
            for h in hashes:
                store.append(_record(h))
        # Tear the tails of two different shards (a two-worker crash).
        torn = []
        for i, h in enumerate(("f0000000aa", "f0000001bb")):  # shards 0, 1
            shard = tmp_path / "r.d" / f"shard-{store.shard_index(h):02x}.jsonl"
            with open(shard, "a") as fh:
                fh.write(json.dumps(_record(h))[: 20 + i])  # no newline
            torn.append(h)
        fresh = ShardedStore(tmp_path / "r.d")
        assert set(fresh.load()) == set(hashes)  # torn fragments dropped
        with fresh:
            fresh.append(_record("f0000004cc"))  # truncates shard 0 only
        assert set(ShardedStore(tmp_path / "r.d").load()) == {*hashes, "f0000004cc"}
        for h in torn:
            assert h not in json.dumps(ShardedStore(tmp_path / "r.d").load())
        report = ShardedStore(tmp_path / "r.d").verify()
        # Shard 1 keeps its torn tail until its own next append.
        assert report["corrupt"] == 0 and report["torn_tail"] is True

    def test_corrupt_midshard_line_raises(self, tmp_path):
        # Shards are single-writer JSONL files with the JSONL reader
        # contract: a corrupt complete line is damage and raises,
        # naming the recovery tool (docs/DESIGN.md §10).
        with _sharded(tmp_path / "r.d", 1) as store:
            store.append(_record("aaa"))
        shard = tmp_path / "r.d" / "shard-00.jsonl"
        shard.write_text("garbage\n" + shard.read_text())
        fresh = ShardedStore(tmp_path / "r.d")
        with pytest.raises(StoreError, match="repro store repair"):
            fresh.load()
        with pytest.raises(StoreError, match="repro store repair"):
            fresh.count()
        assert fresh.verify()["corrupt"] == 1

    def test_info_shard_fill(self, tmp_path):
        store = _sharded(tmp_path / "r.d", 4)
        with store:
            for i in range(8):
                store.append(_record(f"{i:08x}ffff"))
        info = store.info()
        assert info["shards"] == 4
        assert sum(info["shard_records"]) == 8 == info["records"]
        assert "active_leases" not in info

    def test_append_many_writes_once_per_shard_touched(self, tmp_path, monkeypatch):
        # The JSONL rule, shard by shard: a batch is one write per
        # shard it routes to, never one per record.
        writes = []
        real = ResultStore.append_many

        def spy(self, records):
            records = list(records)
            writes.append((self.path.name, len(records)))
            real(self, records)

        monkeypatch.setattr(ResultStore, "append_many", spy)
        store = _sharded(tmp_path / "r.d", 4)
        hashes = [f"{i:08x}ffff" for i in range(8)]  # two per shard
        with store:
            store.append_many(_record(h) for h in hashes)
            store.append_many([_record("00000004aa")])
        assert sorted(writes[:4]) == [(f"shard-{i:02x}.jsonl", 2) for i in range(4)]
        assert writes[4:] == [("shard-00.jsonl", 1)]
        assert set(ShardedStore(tmp_path / "r.d").load()) == {*hashes, "00000004aa"}

    def test_leftover_meta_temp_file_is_harmless(self, tmp_path):
        # A crash between writing store.json's temp file and renaming
        # it leaves the temp file behind; the next writer overwrites
        # it, and readers never look at it.
        root = tmp_path / "r.d"
        root.mkdir()
        (root / "store.json.tmp").write_text('{"format": "repro-sha')
        (root / "store.json.4242-1").write_text("")  # an older temp name
        assert ShardedStore(root).info()["records"] == 0
        with ShardedStore(root) as store:
            store.append(_record("aaa"))
        assert not (root / "store.json.tmp").exists()
        reopened = ShardedStore(root)
        assert set(reopened.load()) == {"aaa"}
        assert reopened.info()["records"] == 1

    def test_old_leases_directory_is_ignored(self, tmp_path):
        # Stores written while sharded: still had a lease board may
        # carry a leases/ directory; it is inert now.
        with ShardedStore(tmp_path / "r.d") as store:
            store.append(_record("aaa"))
        leases = tmp_path / "r.d" / "leases"
        leases.mkdir()
        (leases / "k.lease").write_text("pid-1-deadbeef\n60.0\n")
        reopened = ShardedStore(tmp_path / "r.d")
        assert set(reopened.load()) == {"aaa"}
        info = reopened.info()
        assert info["records"] == 1 and "active_leases" not in info
        with reopened:
            reopened.append(_record("bbb"))
        assert ShardedStore(tmp_path / "r.d").count() == 2


# ----------------------------------------------------------------------
# sqlite specifics
# ----------------------------------------------------------------------
class TestSqliteStore:
    def test_corrupt_body_raises(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        with store:
            store.append(_record("aaa"))
        import sqlite3

        conn = sqlite3.connect(tmp_path / "r.db")
        with conn:
            conn.execute("UPDATE records SET body = 'not json'")
        conn.close()
        with pytest.raises(StoreError, match="corrupt record"):
            SqliteStore(tmp_path / "r.db").load()

    def test_body_hash_mismatch_raises(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        with store:
            store.append(_record("aaa"))
        import sqlite3

        conn = sqlite3.connect(tmp_path / "r.db")
        with conn:
            conn.execute(
                "UPDATE records SET body = ?", (json.dumps(_record("bbb")),)
            )
        conn.close()
        with pytest.raises(StoreError, match="does not match"):
            SqliteStore(tmp_path / "r.db").load()

    def test_two_instances_see_each_other(self, tmp_path):
        a = SqliteStore(tmp_path / "r.db")
        b = SqliteStore(tmp_path / "r.db")
        with a, b:
            a.append(_record("aaa"))
            b.append(_record("bbb"))
            assert set(a.load()) == set(b.load()) == {"aaa", "bbb"}


# ----------------------------------------------------------------------
# concurrent multi-process writers
# ----------------------------------------------------------------------
# A campaign has one writer, but a SQLite store must still stay whole
# when two processes append at once: SQLite's locking serialises them
# and ``_connect`` retries the busy open of a fresh database.
def _writer(url, start, shared):
    from repro.store import open_store

    with open_store(url) as store:
        for i in range(start, start + 25):
            store.append(_record(f"{i:08x}b0dy"))
        for h in shared:
            store.append(_record(h, shared=True))


def test_two_processes_write_concurrently(tmp_path):
    store = SqliteStore(tmp_path / "r.db")
    shared = [f"c{0:07x}same", f"c{1:07x}same"]  # both workers write these
    procs = [
        multiprocessing.get_context().Process(
            target=_writer, args=(store.url, start, shared)
        )
        for start in (0, 1000)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
        assert p.exitcode == 0
    loaded = store.load()
    assert len(loaded) == store.count() == 52
    # every record is whole (no interleaved lines / torn bodies)
    for h, rec in loaded.items():
        assert rec["hash"] == h and rec["stats"]["mean_time"] == 1.5


# ----------------------------------------------------------------------
# migration
# ----------------------------------------------------------------------
class TestMigration:
    def _populated(self, tmp_path):
        src = ResultStore(tmp_path / "src.jsonl")
        with src:
            for i in range(20):
                src.append(_record(f"{i:08x}feed", i=i, t=0.1 * i))
            src.append(_record(f"{3:08x}feed", i=3, t=99.0))  # duplicate
        return src

    def test_round_trip_is_lossless(self, tmp_path):
        src = self._populated(tmp_path)
        a = f"sharded:{tmp_path / 'a.d'}"
        b = f"sqlite:{tmp_path / 'b.db'}"
        c = str(tmp_path / "c.jsonl")
        assert migrate_store(src, a) == 20
        assert migrate_store(a, b) == 20
        assert migrate_store(b, c) == 20
        assert open_store(c).load() == src.load()

    def test_report_bit_identical_across_backends(self, tmp_path):
        tasks = CampaignSpec(
            kind="table1", scale=48, reps=1, uids=(2213,), s_span=1
        ).expand()
        src = tmp_path / "src.jsonl"
        run_campaign(tasks, jobs=1, store=src)
        stops = [
            f"sharded:{tmp_path / 'a.d'}",
            f"sqlite:{tmp_path / 'b.db'}",
            str(tmp_path / "c.jsonl"),
        ]
        prev = str(src)
        for dst in stops:
            migrate_store(prev, dst)
            prev = dst
        texts = {
            spec: format_summary(summarize_store(spec)).split("\n", 1)[1]
            for spec in [str(src), *stops]  # drop the path line, keep the fold
        }
        assert len(set(texts.values())) == 1, texts

    def test_refuses_populated_destination(self, tmp_path):
        src = self._populated(tmp_path)
        dst = SqliteStore(tmp_path / "dst.db")
        with dst:
            dst.append(_record("occupied"))
        with pytest.raises(ValueError, match="already has records"):
            migrate_store(src, dst)

    def test_refuses_self_migration(self, tmp_path):
        src = self._populated(tmp_path)
        with pytest.raises(ValueError, match="onto itself"):
            migrate_store(src, str(src.path))


# ----------------------------------------------------------------------
# resume across backends (campaign-level equivalence)
# ----------------------------------------------------------------------
class TestResumeAcrossBackends:
    def test_migrated_store_resumes_with_zero_recompute(self, tmp_path):
        tasks = CampaignSpec(
            kind="table1", scale=48, reps=1, uids=(2213,), s_span=0
        ).expand()
        src = tmp_path / "run.jsonl"
        original = run_campaign(tasks, jobs=1, store=src)
        for dst in (f"sharded:{tmp_path / 'r.d'}", f"sqlite:{tmp_path / 'r.db'}"):
            migrate_store(str(src), dst)
            done, pending = open_store(dst).resume(tasks)
            assert pending == []  # task hashes survived the migration
            resumed = run_campaign(tasks, jobs=1, store=dst)
            assert resumed == original  # served from store, bit-identical

    @pytest.mark.parametrize("scheme", ["sharded", "sqlite"])
    def test_fresh_campaign_through_backend_matches_jsonl(self, scheme, tmp_path):
        tasks = CampaignSpec(
            kind="table1", scale=48, reps=1, uids=(2213,), s_span=0
        ).expand()
        baseline = run_campaign(tasks, jobs=1, store=tmp_path / "base.jsonl")
        url = (
            f"sharded:{tmp_path / 'x.d'}" if scheme == "sharded"
            else f"sqlite:{tmp_path / 'x.db'}"
        )
        assert run_campaign(tasks, jobs=2, store=url) == baseline


# ----------------------------------------------------------------------
# closing what is opened
# ----------------------------------------------------------------------
@pytest.fixture
def spy_scheme(monkeypatch):
    """A ``spy:`` scheme whose stores count their ``close()`` calls,
    patched into the private scheme table; yields the list of every
    instance the factory built."""
    import repro.store as store_pkg

    opened = []

    class SpyStore(SqliteStore):
        def __init__(self, path):
            super().__init__(path)
            self.closes = 0
            opened.append(self)

        def close(self):
            self.closes += 1
            super().close()

    monkeypatch.setitem(store_pkg._SCHEMES, "spy", SpyStore)
    return opened


class TestClosesWhatItOpens:
    """Every path that opens a store from a URL closes it (the SQLite
    connection, the JSONL append handle); an instance the caller passed
    in stays open."""

    def test_url_opened_stores_are_closed(self, spy_scheme, tmp_path, monkeypatch, capsys):
        from repro import Study
        from repro.api.cli import main
        from repro.campaign import run_campaign
        from repro.campaign.aggregate import records_for_tasks
        from repro.store import compact_store, repair_store, verify_store

        monkeypatch.chdir(tmp_path)
        study = Study("spy").fix(uid=2213, scale=128, reps=1, s=4)
        study.save("spec.json")
        tasks = study.tasks()
        with SqliteStore("full.db") as seed:
            seed.append({"hash": tasks[0].task_hash(), "task": tasks[0].to_json()})
        full = "spy:full.db"
        paths = {
            "migrate_store": lambda: migrate_store(full, "spy:migrated.db"),
            "compact_store": lambda: compact_store(full, "spy:compacted.db"),
            "repair_store": lambda: repair_store(full, "spy:repaired.db"),
            "verify_store": lambda: verify_store(full),
            "summarize_store": lambda: summarize_store(full),
            "records_for_tasks": lambda: records_for_tasks(tasks, full),
            "run_campaign": lambda: run_campaign(tasks, jobs=1, store=full),
            "cli --store check": lambda: main(
                ["table1", "--store", full, "--scale", "128", "--uids", "2213"]
            ),
            "cli store info": lambda: main(["store", "info", full]),
        }
        for name, drive in paths.items():
            spy_scheme.clear()
            drive()
            assert spy_scheme, name
            assert [s.closes for s in spy_scheme] == [1] * len(spy_scheme), name
        capsys.readouterr()

    def test_instances_stay_open(self, spy_scheme, tmp_path):
        store = open_store(f"spy:{tmp_path / 'mine.db'}")
        store.append(_record("a" * 64))
        summarize_store(store)
        migrate_store(store, tmp_path / "copy.jsonl")
        assert store.closes == 0
