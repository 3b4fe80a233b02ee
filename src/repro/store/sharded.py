"""Sharded JSONL store: a directory of hash-partitioned JSONL files.

One store is a *directory* of append-only JSONL shard files plus a
small metadata file::

    campaign.d/
        store.json          {"format": "repro-sharded-jsonl", ...}
        shard-00.jsonl      records whose hash lands in partition 0
        shard-01.jsonl      ...

Every record is routed to the shard its content hash selects
(:meth:`ShardedStore.shard_index`, a pure function of the hash).  Each
shard is a plain :class:`~repro.store.jsonl.ResultStore`, so the store
keeps the JSONL contract shard by shard (``docs/DESIGN.md`` §10): one
writer, strict readers that raise
:class:`~repro.store.protocol.StoreError` on a corrupt complete line, and
a torn tail that readers drop and the next append to that shard
truncates.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Iterable, Iterator

from repro.store.jsonl import ResultStore
from repro.store.protocol import StoreBackend, StoreError

__all__ = ["ShardedStore", "DEFAULT_SHARDS"]

#: Partition count of a new store; an existing store keeps the count
#: its ``store.json`` records.
DEFAULT_SHARDS: int = 16

_META_NAME = "store.json"
_FORMAT = "repro-sharded-jsonl"


class ShardedStore(StoreBackend):
    """Task-hash-partitioned JSONL store (directory of shards).

    ``path`` is the store directory, created (with parents) on first
    write.  A new store gets :data:`DEFAULT_SHARDS` partitions; an
    existing one keeps the count in its ``store.json`` — placement
    must match what the directory was written with, or placement-based
    dedup/count would silently break.

    Construction never touches the filesystem; reads of a store that
    was never written behave as reads of an empty store.
    """

    scheme = "sharded"

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        super().__init__(path)
        self._shards: "int | None" = None  # resolved lazily against store.json
        self._stores: "dict[int, ResultStore]" = {}

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Partition count (resolving ``store.json`` on first use)."""
        if self._shards is None:
            meta = self._read_meta()
            self._shards = int(meta["shards"]) if meta is not None else DEFAULT_SHARDS
        return self._shards

    def _meta_path(self) -> pathlib.Path:
        return self.path / _META_NAME

    def _read_meta(self) -> "dict | None":
        meta_path = self._meta_path()
        if not meta_path.exists():
            if self.path.exists() and any(self.path.glob("shard-*.jsonl")):
                raise StoreError(
                    f"{self.path}: shard files present but {_META_NAME} is "
                    "missing — the store cannot verify its partition count"
                )
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("format") != _FORMAT or int(meta["shards"]) < 1:
                raise ValueError(f"not a {_FORMAT} store")
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{meta_path}: corrupt store metadata ({exc})") from exc
        return meta

    def _write_meta(self) -> None:
        """Publish ``store.json`` before the first shard append: written
        to a temp file and renamed into place, so a crash never leaves
        a partial one."""
        meta_path = self._meta_path()
        if meta_path.exists():
            return
        self.path.mkdir(parents=True, exist_ok=True)
        tmp = meta_path.with_name(f"{_META_NAME}.tmp")
        tmp.write_text(
            json.dumps({"format": _FORMAT, "version": 1, "shards": self.shards}) + "\n"
        )
        os.replace(tmp, meta_path)

    def shard_index(self, record_hash: str) -> int:
        """Partition for a record hash.

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
            store = self._stores[index] = ResultStore(self._shard_path(index))
        return store

    # ------------------------------------------------------------------
    # StoreBackend layout
    # ------------------------------------------------------------------
    def append_many(self, records: "Iterable[dict]") -> None:
        """Route each record to its hash's shard and append the batch
        with one write per shard touched (a record without ``"hash"``
        rejects the whole batch first).

        There is no cross-shard transaction: a crash mid-batch loses
        the shards not yet written and may tear the tail of the one
        being written, which its next append truncates.  Shard handles
        stay open, so a campaign pays one open per shard it touches.
        """
        by_shard: "dict[int, list[dict]]" = {}
        for record in records:
            if "hash" not in record:
                raise ValueError("record must carry a 'hash' key")
            by_shard.setdefault(self.shard_index(record["hash"]), []).append(record)
        self._write_meta()
        for index, batch in by_shard.items():
            self._shard_store(index).append_many(batch)

    def _entries(self) -> "Iterator[tuple[str, str, None]]":
        """Every shard's entries, shard by shard (index order), file
        order within each shard.

        The order is stable but *not* the global append order — shards
        are independent logs.  Every fold in the library is either
        keyed by hash (resume, last-wins dedup) or canonicalized by
        task order / hash order before any float accumulation, so
        aggregates do not depend on it.
        """
        for index in range(self.shards):
            yield from self._shard_store(index)._entries()

    def _torn_tail(self) -> bool:
        """Whether *any* shard ends in a torn write."""
        return any(self._shard_store(index)._torn_tail() for index in range(self.shards))

    def count(self) -> int:
        # A hash's shard is fixed, so distinct-per-shard sums to
        # distinct overall.
        return sum(self._shard_store(index).count() for index in range(self.shards))

    def info(self) -> dict:
        """Layout facts for ``repro store info``: per-shard fill,
        without materializing any payload."""
        shard_records = [self._shard_store(index).count() for index in range(self.shards)]
        shard_bytes = sum(
            path.stat().st_size
            for path in map(self._shard_path, range(self.shards))
            if path.exists()
        )
        return {
            "backend": self.scheme,
            "url": self.url,
            "exists": self.path.exists(),
            "records": sum(shard_records),
            "bytes": shard_bytes,
            "shards": self.shards,
            "shard_records": shard_records,
        }

    def close(self) -> None:
        for store in self._stores.values():
            store.close()
