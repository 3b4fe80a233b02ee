"""The store contract as a state machine, over every layout.

One hypothesis ``RuleBasedStateMachine`` drives a ``jsonl``, a
``sharded:`` and a ``sqlite:`` store in lockstep through appends and
batches (duplicate hashes; task, ``telemetry``, ``partial`` and
``quarantine`` records), close and reopen, a torn tail (the JSONL
layouts' crash footprint), corrupting a record then ``repair_store``,
``compact_store``, ``migrate_store`` to the next backend, and
``resume`` of a task list.  After every step each store is held to a
plain dict model:

- the last-wins fold of ``iter_records`` equals the model, in the
  layout's order (insertion order; shard by shard for ``sharded:``);
- ``count()`` and ``len()`` equal ``len(model)``;
- ``verify()`` counts every stored entry sealed, none corrupt, and a
  torn tail exactly while one is on disk;
- ``format_summary(summarize_store(...))`` is byte-identical across
  the three stores, bar its ``store:`` line.

The budget follows the hypothesis profile: a fifth of its
``max_examples`` (``--hypothesis-profile soak`` for the raised one).
"""

import itertools
import json
import shutil
import sqlite3
import tempfile
import warnings
from collections import Counter

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.api.report import format_summary, summarize_store
from repro.campaign import CampaignSpec
from repro.store import (
    ShardedStore,
    StoreIntegrityWarning,
    compact_store,
    migrate_store,
    open_store,
    repair_store,
)
from repro.store.integrity import seal_text

TASKS = CampaignSpec(kind="table1", scale=48, reps=1, uids=(2213,), s_span=1).expand()[:4]
TASK_HASHES = [t.task_hash() for t in TASKS]
#: Task hashes (so ``resume`` finds some) plus hex hashes no task carries.
HASHES = TASK_HASHES + ["0" * 63 + "a", "ff" * 32]
SCHEMES = ("jsonl", "sharded", "sqlite")
SHARDS = 4


def _make_record(kind: str, index: int, rev: int) -> dict:
    h = HASHES[index % len(HASHES)]
    if kind == "telemetry":
        return {"hash": f"telemetry:{index}", "kind": "telemetry", "fresh": 1,
                "cached": rev, "counters": {"engine.solves": rev + 1}}
    if kind == "partial":
        th = TASK_HASHES[index % len(TASK_HASHES)]
        return {"hash": f"partial:{th}", "kind": "partial", "task_hash": th, "reps": [rev]}
    if kind == "quarantine":
        return {"hash": h, "kind": "quarantine", "error": f"boom {rev}"}
    return {
        "hash": h,
        "task": {"experiment": "table1", "method": "cg", "scheme": f"s{rev % 2}", "reps": 2},
        "stats": {"reps": 1 + rev % 2, "mean_time": 1.5 + rev / 3, "min_time": 0.1 * rev,
                  "max_time": 2.0 + rev, "convergence_rate": rev / 7},
    }


records = st.builds(
    _make_record,
    kind=st.sampled_from(["task", "task", "telemetry", "partial", "quarantine"]),
    index=st.integers(0, len(HASHES) - 1),
    rev=st.integers(0, 3),
)


def _summary_body(store) -> str:
    """The report without its ``store: URL`` line."""
    return format_summary(summarize_store(store)).split("\n", 1)[1]


class StoreContract(RuleBasedStateMachine):
    """Three stores, one dict model (see the module docstring)."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-contract-")
        self.paths = itertools.count()
        self.model: "dict[str, dict]" = {}
        #: Per store: its scheme, the hashes' insertion order, the
        #: entries it holds per hash (JSONL keeps every line) and the
        #: files (sharded: shard indices) that end in a torn write.
        self.stores = [self._new_store(s) for s in SCHEMES]
        self.schemes = list(SCHEMES)
        self.order: "list[list[str]]" = [[] for _ in SCHEMES]
        self.entries: "list[Counter]" = [Counter() for _ in SCHEMES]
        self.torn: "list[set]" = [set() for _ in SCHEMES]

    def teardown(self):
        for store in self.stores:
            store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _new_store(self, scheme: str):
        path = f"{self.root}/{next(self.paths)}"
        if scheme == "sharded":
            # A small partition count: several shards, few files.
            store = ShardedStore(path)
            store.path.mkdir()
            (store.path / "store.json").write_text(json.dumps(
                {"format": "repro-sharded-jsonl", "version": 1, "shards": SHARDS}))
            return store
        return open_store(f"{scheme}:{path}")

    def _torn_key(self, i: int, record_hash: str):
        store = self.stores[i]
        return store.shard_index(record_hash) if self.schemes[i] == "sharded" else 0

    def _file_of(self, i: int, record_hash: str):
        store = self.stores[i]
        if self.schemes[i] == "sharded":
            return store.path / f"shard-{store.shard_index(record_hash):02x}.jsonl"
        return store.path

    def _expected_order(self, i: int) -> "list[str]":
        if self.schemes[i] == "sharded":
            return sorted(self.order[i], key=self.stores[i].shard_index)
        return self.order[i]

    def _replace(self, i: int, dst, model: "dict[str, dict]", *, folded: bool) -> None:
        """Swap store ``i`` for ``dst``, a fresh store that received
        ``model``'s records in store ``i``'s iteration order: folded
        (one entry per hash) or entry for entry."""
        survivors = [h for h in self._expected_order(i) if h in model]
        copies = 1 if folded or dst.scheme == "sqlite" else None
        self.entries[i] = Counter({h: copies or self.entries[i][h] for h in survivors})
        self.stores[i].close()
        self.stores[i] = dst
        self.schemes[i] = dst.scheme
        self.order[i] = survivors
        self.torn[i] = set()

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def _appended(self, batch: "list[dict]") -> None:
        for i, scheme in enumerate(self.schemes):
            if scheme == "jsonl":  # the first write of a handle, batch or not
                self.torn[i].clear()
        for rec in batch:
            h = rec["hash"]
            if h not in self.model:
                for order in self.order:
                    order.append(h)
            self.model[h] = rec
            for i, scheme in enumerate(self.schemes):
                self.entries[i][h] = 1 if scheme == "sqlite" else self.entries[i][h] + 1
                self.torn[i].discard(self._torn_key(i, h))

    @rule(record=records)
    def append(self, record):
        for store in self.stores:
            store.append(record)
        self._appended([record])

    @rule(batch=st.lists(records, max_size=5))
    def append_many(self, batch):
        for store in self.stores:
            store.append_many(iter(batch))
        self._appended(batch)

    @rule()
    def close_and_reopen(self):
        for i, store in enumerate(self.stores):
            store.close()
            self.stores[i] = open_store(store.url)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 2**16), fragment=records, cut=st.floats(0.0, 1.0))
    def tear_tail(self, pick, fragment, cut):
        # A writer killed mid-append: whatever prefix of its line made
        # it out (the whole record included), with no newline.
        h = sorted(self.model)[pick % len(self.model)]
        text = seal_text(fragment)
        text = text[: max(1, int(cut * len(text)))]
        for i, store in enumerate(self.stores):
            if self.schemes[i] == "sqlite":
                continue
            store.close()
            with open(self._file_of(i, h), "a") as fh:
                fh.write(text)
            self.stores[i] = open_store(store.url)
            self.torn[i].add(self._torn_key(i, h))

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 2**16))
    def corrupt_then_repair(self, pick):
        h = sorted(self.model)[pick % len(self.model)]
        kept = {k: rec for k, rec in self.model.items() if k != h}
        for i, store in enumerate(self.stores):
            store.close()
            if self.schemes[i] == "sqlite":
                conn = sqlite3.connect(store.path)
                with conn:
                    conn.execute("UPDATE records SET body = substr(body, 1, length(body) - 2) "
                                 "WHERE hash = ?", (h,))
                conn.close()
            else:
                path = self._file_of(i, h)
                lines = path.read_text().splitlines(keepends=True)
                path.write_text("".join(
                    line[:-3] + "\n"
                    if line.endswith("\n") and line.startswith(f'{{"hash": "{h}"') else line
                    for line in lines
                ))
            dst = self._new_store(self.schemes[i])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert repair_store(store, dst) == (len(kept), self.entries[i][h])
            assert store.corrupt_skipped == self.entries[i][h]
            assert [w.category for w in caught] == [StoreIntegrityWarning] * self.entries[i][h]
            self._replace(i, dst, kept, folded=False)
        self.model = kept

    @rule()
    def compact(self):
        kept = {
            h: rec for h, rec in self.model.items()
            if rec.get("kind") != "telemetry"
            and not (rec.get("kind") == "partial" and rec["task_hash"] in self.model)
        }
        for i, store in enumerate(self.stores):
            dst = self._new_store(self.schemes[i])
            assert compact_store(store, dst) == len(kept)
            self._replace(i, dst, kept, folded=True)
        self.model = kept

    @rule()
    def migrate_to_the_next_backend(self):
        for i, store in enumerate(self.stores):
            dst = self._new_store(SCHEMES[(SCHEMES.index(self.schemes[i]) + 1) % len(SCHEMES)])
            assert migrate_store(store, dst) == len(self.model)
            assert dst.verify()["records"] == len(self.model)  # duplicates folded
            self._replace(i, dst, self.model, folded=True)

    @rule(tasks=st.lists(st.sampled_from(TASKS), max_size=4, unique_by=lambda t: t.task_hash()))
    def resume(self, tasks):
        want_done = {t.task_hash(): self.model[t.task_hash()]
                     for t in tasks if t.task_hash() in self.model}
        want_pending = [t for t in tasks if t.task_hash() not in self.model]
        for store in self.stores:
            done, pending = store.resume(tasks)
            assert done == want_done and pending == want_pending

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def fold_count_and_verify_match_the_model(self):
        for i, store in enumerate(self.stores):
            fold = {}
            for rec in store.iter_records():
                fold[rec["hash"]] = rec
            assert fold == self.model, self.schemes[i]
            assert list(fold) == self._expected_order(i), self.schemes[i]
            assert store.count() == len(store) == len(self.model)
            entries = sum(self.entries[i].values())
            assert store.verify() == {
                "records": entries, "corrupt": 0, "sealed": entries, "unsealed": 0,
                "torn_tail": bool(self.torn[i]),
            }, self.schemes[i]

    @invariant()
    def reports_are_byte_identical_across_backends(self):
        first, *rest = (_summary_body(store) for store in self.stores)
        assert all(body == first for body in rest)


StoreContract.TestCase.settings = settings(
    max_examples=max(10, settings.default.max_examples // 5),
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoreContract = StoreContract.TestCase

