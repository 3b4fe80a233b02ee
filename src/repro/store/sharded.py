"""Sharded JSONL store: hash-partitioned files for concurrent writers.

One store is a *directory* of append-only JSONL shard files plus a
small metadata file::

    campaign.d/
        store.json          {"format": "repro-sharded-jsonl", ...}
        shard-00.jsonl      records whose hash lands in partition 0
        shard-01.jsonl      ...
        leases/             advisory lease files (serve mode)

Every record is routed to the shard its content hash selects
(:meth:`ShardedStore.shard_index` — a pure function of the hash, so
every process agrees on placement without coordination).  That gives
the multi-writer property the single-file store cannot have: two
processes writing *different* tasks usually touch different files, and
when they do share one, each append is a single ``O_APPEND`` write of
one whole line, so lines never interleave.  Each shard individually
keeps the JSONL durability contract of
:class:`~repro.store.jsonl.ResultStore` — torn-tail salvage is
*per shard*: a crash in one writer can tear at most the tail of the
shards it was appending to, and every other shard stays pristine.

Because shards have *concurrent* writers, their durability handling
differs from the single-writer file in two deliberate ways
(``docs/DESIGN.md`` §10): torn tails are neutralized by an atomic
appended newline instead of truncation (truncating could destroy a
peer's record appended after the tear), and shard readers are
*tolerant* — a corrupt complete line (a crashed peer's joined write,
or bit rot caught by the per-record CRC32) is skipped with a counted
:class:`~repro.store.jsonl.StoreIntegrityWarning` rather than
raising, the lost record healing by re-execution on resume.

Leases (serve mode) are implemented as files under ``leases/``:
claiming is an atomic ``O_CREAT | O_EXCL`` create, heartbeats bump the
file's mtime, and stealing an expired lease is an atomic rename over
it.  See :mod:`repro.store.protocol` for why leases are advisory.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pathlib
import time
from typing import Iterable, Iterator

from repro.store.jsonl import ResultStore, StoreError
from repro.store.protocol import default_resume

__all__ = ["ShardedStore", "DEFAULT_SHARDS"]

#: Default partition count: enough that a typical worker fleet (≤ 32)
#: rarely collides on one file, small enough that an `ls` stays legible.
DEFAULT_SHARDS: int = 16

_META_NAME = "store.json"
_FORMAT = "repro-sharded-jsonl"


class ShardedStore:
    """Task-hash-partitioned JSONL store (directory of shards).

    Parameters
    ----------
    path:
        Store directory; created (with parents) on first write.
    shards:
        Partition count for a *new* store.  An existing store's
        ``store.json`` always wins — the partition function must match
        what the directory was written with, or placement-based
        dedup/count would silently break.

    Construction never touches the filesystem; reads of a store that
    was never written behave as reads of an empty store.
    """

    supports_leases: bool = True

    def __init__(self, path: "str | os.PathLike[str]", *, shards: int = DEFAULT_SHARDS) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.path = pathlib.Path(path)
        self._requested_shards = int(shards)
        self._shards: "int | None" = None  # resolved lazily against store.json
        self._stores: "dict[int, ResultStore]" = {}

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"sharded:{self.path}"

    @property
    def shards(self) -> int:
        """Partition count (resolving ``store.json`` on first use)."""
        if self._shards is None:
            meta = self._read_meta()
            self._shards = (
                int(meta["shards"]) if meta is not None else self._requested_shards
            )
        return self._shards

    def _meta_path(self) -> pathlib.Path:
        return self.path / _META_NAME

    def _read_meta(self) -> "dict | None":
        meta_path = self._meta_path()
        if not meta_path.exists():
            if not (self.path.exists() and any(self.path.glob("shard-*.jsonl"))):
                return None
            # A concurrent creator publishes store.json before its first
            # shard append, so the shards just seen may belong to a store
            # published since the look above: look again before calling
            # them orphaned.
            if not meta_path.exists():
                raise StoreError(
                    f"{self.path}: shard files present but {_META_NAME} is "
                    "missing — the store cannot verify its partition count"
                )
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("format") != _FORMAT or int(meta["shards"]) < 1:
                raise ValueError(f"not a {_FORMAT} store")
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{meta_path}: corrupt store metadata ({exc})") from exc
        return meta

    def _write_meta(self) -> None:
        # Atomic, exclusive publish: the metadata is written to a
        # private temp file and hard-linked into place.  link() fails
        # if a peer published first (the shard count is fixed by
        # whoever creates the store first), and no reader can ever see
        # a partially written store.json.
        meta_path = self._meta_path()
        if meta_path.exists():
            self._sync_shards()
            return
        self.path.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"format": _FORMAT, "version": 1, "shards": self.shards}
        ) + "\n"
        tmp = meta_path.with_name(
            f"{_META_NAME}.{os.getpid()}-{time.monotonic_ns()}"
        )
        tmp.write_text(payload)
        try:
            os.link(tmp, meta_path)
        except FileExistsError:
            # Another writer published first; adopt its partition count
            # before routing anything.
            self._sync_shards()
        finally:
            tmp.unlink()

    def _sync_shards(self) -> None:
        """Adopt the published partition count if no record was routed
        yet (a losing creation race must not route with its own)."""
        if self._stores:
            return
        meta = self._read_meta()
        if meta is not None:
            self._shards = int(meta["shards"])

    def shard_index(self, record_hash: str) -> int:
        """Partition for a record hash — a pure function every process
        computes identically.

        Task hashes are hex (SHA-256), so their leading digits are a
        uniform partition key; non-hex hashes (``telemetry:<uuid>``
        records) are re-hashed first.
        """
        try:
            prefix = int(record_hash[:8], 16)
        except ValueError:
            digest = hashlib.sha256(record_hash.encode()).hexdigest()
            prefix = int(digest[:8], 16)
        return prefix % self.shards

    def _shard_path(self, index: int) -> pathlib.Path:
        return self.path / f"shard-{index:02x}.jsonl"

    def _shard_store(self, index: int) -> ResultStore:
        store = self._stores.get(index)
        if store is None:
            # Shards are multi-writer files: torn tails are neutralized
            # by an atomic newline append (never truncated — a peer may
            # have appended past the tear), and readers skip corrupt
            # lines with a counted StoreIntegrityWarning instead of
            # raising, because one corrupt joined line is a legitimate
            # crash footprint here.  The lost record heals by
            # re-execution: its hash is missing, so resume reruns it.
            store = self._stores[index] = ResultStore(
                self._shard_path(index), tolerant=True, shared=True
            )
        return store

    # ------------------------------------------------------------------
    # StoreBackend protocol
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record: :meth:`append_many` of one."""
        self.append_many((record,))

    def append_many(self, records: "Iterable[dict]") -> None:
        """Route each record to its hash's shard and durably append it
        (a record without ``"hash"`` rejects the whole batch first).

        Shards are multi-writer files, so a batch is still one flushed
        line per record — there is no cross-shard transaction and a
        crash mid-batch loses only the records not yet written.  The
        first append of a process to a given shard repairs that
        shard's torn tail (crash salvage is per shard); the shard
        handle then stays open, so a worker appending many records
        pays one open per shard it ever touches, and workers touching
        disjoint shards never contend.
        """
        records = list(records)
        if any("hash" not in record for record in records):
            raise ValueError("record must carry a 'hash' key")
        self._write_meta()
        for record in records:
            self._shard_store(self.shard_index(record["hash"])).append(record)

    def iter_records(self) -> "Iterator[dict]":
        """Stream records shard by shard (index order), file order
        within each shard.

        The order is stable but *not* the global append order — shards
        are independent logs.  Every fold in the library is either
        keyed by hash (resume, last-wins dedup) or canonicalized by
        task order / hash order before any float accumulation, so
        aggregates do not depend on it.
        """
        for index in range(self.shards):
            yield from self._shard_store(index).iter_records()

    def load(self) -> "dict[str, dict]":
        records: "dict[str, dict]" = {}
        for rec in self.iter_records():
            records[rec["hash"]] = rec
        return records

    def resume(self, tasks):
        return default_resume(self, tasks)

    def count(self) -> int:
        # A hash's shard is fixed, so distinct-per-shard sums to
        # distinct overall.
        return sum(
            self._shard_store(index).count() for index in range(self.shards)
        )

    @property
    def corrupt_skipped(self) -> int:
        """Corrupt lines skipped by this instance's tolerant shard
        readers (summed over shards)."""
        return sum(s.corrupt_skipped for s in self._stores.values())

    def iter_intact(self) -> "Iterator[dict]":
        """Stream only records that parse and verify (``repro store
        repair``); corrupt lines are counted, never raised."""
        for index in range(self.shards):
            yield from self._shard_store(index).iter_intact()

    def verify(self) -> dict:
        """Integrity scan summed over shards (see
        :meth:`repro.store.jsonl.ResultStore.verify`); ``torn_tail``
        is true if *any* shard ends torn."""
        totals = {"records": 0, "corrupt": 0, "sealed": 0, "unsealed": 0,
                  "torn_tail": False}
        for index in range(self.shards):
            part = self._shard_store(index).verify()
            for key in ("records", "corrupt", "sealed", "unsealed"):
                totals[key] += part[key]
            totals["torn_tail"] = totals["torn_tail"] or part["torn_tail"]
        return totals

    def info(self) -> dict:
        """Layout facts for ``repro store info``: per-shard fill and
        lease activity, without materializing any payload."""
        exists = self.path.exists()
        shard_records = []
        shard_bytes = 0
        for index in range(self.shards):
            shard_records.append(self._shard_store(index).count())
            shard_path = self._shard_path(index)
            if shard_path.exists():
                shard_bytes += shard_path.stat().st_size
        leases_dir = self.path / "leases"
        return {
            "backend": "sharded",
            "url": self.url,
            "exists": exists,
            "records": sum(shard_records),
            "bytes": shard_bytes,
            "shards": self.shards,
            "shard_records": shard_records,
            "active_leases": (
                len(list(leases_dir.glob("*.lease"))) if leases_dir.exists() else 0
            ),
        }

    def close(self) -> None:
        for store in self._stores.values():
            store.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count()

    # ------------------------------------------------------------------
    # leases (serve mode)
    # ------------------------------------------------------------------
    def _lease_path(self, key: str) -> pathlib.Path:
        safe = key if key.replace("-", "").isalnum() else (
            hashlib.sha256(key.encode()).hexdigest()
        )
        return self.path / "leases" / f"{safe}.lease"

    def try_claim(self, key: str, owner: str, ttl: float) -> bool:
        """Claim the lease ``key`` for ``owner``; ``True`` if won.

        A free key is claimed by an atomic exclusive create.  A held
        key whose holder stopped heartbeating for ``ttl`` seconds is
        *stolen* by atomically renaming a fresh lease file over the
        stale one — if two stealers race, the last rename wins and the
        loser's subsequent :meth:`holds` check fails, so at most one
        worker keeps believing it owns the lease (and even the losing
        window is harmless: records are idempotent by content hash).
        """
        lease = self._lease_path(key)
        lease.parent.mkdir(parents=True, exist_ok=True)
        # owner + the *holder's* TTL: staleness is judged against the
        # horizon the holder promised to heartbeat within, not against
        # whatever TTL a would-be stealer happens to use (matching the
        # SQLite backend's stored deadline).
        payload = f"{owner}\n{ttl!r}\n".encode()
        try:
            fd = os.open(lease, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except OSError as exc:
            if exc.errno != errno.EEXIST:
                raise
        else:
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            return True
        # Held: steal only if the heartbeat (mtime) has gone stale.
        try:
            age = time.time() - lease.stat().st_mtime
            held_ttl = self._lease_ttl(key, default=ttl)
        except FileNotFoundError:
            # Released between our create attempt and the stat — retry
            # the exclusive create on the next scheduler pass.
            return False
        if age <= held_ttl:
            return False
        tmp = lease.with_suffix(f".steal-{owner}")
        tmp.write_bytes(payload)
        os.replace(tmp, lease)
        return self.holds(key, owner)

    def heartbeat(self, key: str, owner: str, ttl: float = 60.0) -> bool:
        """Refresh the lease's liveness (mtime bump — ``ttl`` is applied
        by the next claimer's staleness check); ``False`` if no longer
        held."""
        lease = self._lease_path(key)
        if not self.holds(key, owner):
            return False
        try:
            os.utime(lease)
        except FileNotFoundError:
            return False
        return True

    def release(self, key: str, owner: str) -> None:
        """Drop the lease if still held by ``owner`` (idempotent)."""
        lease = self._lease_path(key)
        if self.holds(key, owner):
            try:
                lease.unlink()
            except FileNotFoundError:
                pass

    def holds(self, key: str, owner: str) -> bool:
        """Whether ``owner`` currently holds the lease."""
        try:
            text = self._lease_path(key).read_text()
        except FileNotFoundError:
            return False
        return text.split("\n", 1)[0] == owner

    def _lease_ttl(self, key: str, *, default: float) -> float:
        """The TTL the current holder claimed with (``default`` for
        lease files predating the stored-TTL format)."""
        lines = self._lease_path(key).read_text().splitlines()
        try:
            return float(lines[1])
        except (IndexError, ValueError):
            return default
