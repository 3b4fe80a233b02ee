"""Pluggable campaign result stores (the storage layer, DESIGN.md §9).

Every campaign persists one JSON record per completed task, keyed by
the task's content hash.  Where those records live is one of three
*backends*, selected by a URL-style string:

``path/to/store.jsonl`` (bare path — the default, ``jsonl:`` explicit)
    The original single-file append-only JSONL store
    (:class:`~repro.store.jsonl.ResultStore`).  Bit-identical
    semantics preserved; the right choice for single-process
    campaigns.

``sharded:path/to/store.d``
    A directory of hash-partitioned JSONL shards
    (:class:`~repro.store.sharded.ShardedStore`), each shard a
    single-writer JSONL file with the same reader contract.

``sqlite:path/to/store.db``
    A WAL-mode SQLite database
    (:class:`~repro.store.sqlite.SqliteStore`): transactional appends
    (no torn tails at all) and native upsert-by-hash.

All three keep the same contract (:mod:`repro.store.protocol`):
identical records in any backend yield bit-identical aggregates, and
``--resume`` recognizes completed tasks across a migration
(:func:`migrate_store` is lossless in both directions).

The selector works everywhere a store is named —
``run_campaign(store=...)``, ``Study.run(store=...)``, every CLI
``--store``, ``repro report`` and ``repro store info/migrate``; a
constructed :class:`~repro.store.protocol.StoreBackend` instance passes
through :func:`open_store` untouched.

Every function here that takes a selector closes the store it opened
from a URL before returning (:func:`opened_store`); a store instance
passed in stays the caller's to close.
"""

from __future__ import annotations

import os
import pathlib
import re
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

from repro._lazy import lazy_exports
from repro.store.jsonl import ResultStore
from repro.store.protocol import StoreBackend, StoreError, StoreIntegrityWarning

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.store.sharded import DEFAULT_SHARDS, ShardedStore
    from repro.store.sqlite import SqliteStore

__all__ = [
    "StoreBackend",
    "StoreError",
    "StoreIntegrityWarning",
    "ResultStore",
    "ShardedStore",
    "SqliteStore",
    "DEFAULT_SHARDS",
    "DEFAULT_STORE_SCHEME",
    "available_store_schemes",
    "parse_store_url",
    "open_store",
    "opened_store",
    "migrate_store",
    "compact_store",
    "repair_store",
    "verify_store",
]

# The other backends load on first use: a JSONL-only process
# (every default campaign, ``repro report``) never pays for sqlite3.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.store.sharded": ("DEFAULT_SHARDS", "ShardedStore"),
        "repro.store.sqlite": ("SqliteStore",),
    },
)

#: Scheme a bare path resolves to.
DEFAULT_STORE_SCHEME = "jsonl"


def _sharded(path: str) -> StoreBackend:
    from repro.store.sharded import ShardedStore

    return ShardedStore(path)


def _sqlite(path: str) -> StoreBackend:
    from repro.store.sqlite import SqliteStore

    return SqliteStore(path)


#: scheme -> path factory, default first.  Factories take the path part
#: of the URL and return an unopened backend (construction must not
#: touch disk).
_SCHEMES: "dict[str, Callable[[str], StoreBackend]]" = {
    "jsonl": ResultStore,
    "sharded": _sharded,
    "sqlite": _sqlite,
}

#: ``scheme:`` prefix — at least two leading letters, so Windows drive
#: paths (``C:\...``) never parse as a scheme.
_SCHEME = re.compile(r"^([A-Za-z][A-Za-z0-9+._-]+):(.*)$")


def available_store_schemes() -> "list[str]":
    """The scheme names, default first: ``jsonl``, ``sharded``, ``sqlite``."""
    return list(_SCHEMES)


def parse_store_url(spec: "str | os.PathLike[str]") -> "tuple[str, str]":
    """Split a store selector into ``(scheme, path)``.

    ``sharded:dir`` / ``sqlite:file.db`` / ``jsonl:file`` select a
    backend; a bare path (or any ``os.PathLike``) is the
    default JSONL store.  Unknown schemes raise ``ValueError`` naming
    the known ones — a mistyped scheme must fail loudly, not
    silently become a strange filename.
    """
    if isinstance(spec, os.PathLike):
        return DEFAULT_STORE_SCHEME, os.fspath(spec)
    match = _SCHEME.match(spec)
    if match is None:
        return DEFAULT_STORE_SCHEME, spec
    scheme, path = match.groups()
    if scheme not in _SCHEMES:
        raise ValueError(
            f"unknown store scheme {scheme!r} "
            f"(expected one of: {', '.join(available_store_schemes())}; "
            "a bare path selects jsonl)"
        )
    if not path:
        raise ValueError(f"store selector {spec!r} is missing a path")
    return scheme, path


def open_store(spec: "StoreBackend | str | os.PathLike[str]") -> StoreBackend:
    """Resolve a store selector to a backend instance.

    An already-constructed backend passes through untouched (so APIs
    accepting ``store=`` compose with hand-built stores exactly as
    they always did with :class:`ResultStore`).  Construction never
    touches the filesystem — the store materializes on first append.
    """
    if not isinstance(spec, (str, os.PathLike)):
        if isinstance(spec, StoreBackend):
            return spec
        raise TypeError(
            f"store must be a StoreBackend, str or os.PathLike, got {type(spec)!r}"
        )
    scheme, path = parse_store_url(spec)
    return _SCHEMES[scheme](path)


@contextmanager
def opened_store(spec: "StoreBackend | str | os.PathLike[str]") -> "Iterator[StoreBackend]":
    """:func:`open_store` for the length of a ``with`` block.

    A store opened here from a URL is closed on exit; a store instance
    passes through and stays open — its owner closes it.
    """
    store = open_store(spec)
    try:
        yield store
    finally:
        if isinstance(spec, (str, os.PathLike)):
            store.close()


def store_exists(spec: "StoreBackend | str | os.PathLike[str]") -> bool:
    """Whether the selector's backing file/directory exists on disk."""
    store = open_store(spec)  # construction touches nothing: no handle to close
    return pathlib.Path(store.path).exists()


def migrate_store(
    src: "StoreBackend | str | os.PathLike[str]",
    dst: "StoreBackend | str | os.PathLike[str]",
) -> int:
    """Copy every record of ``src`` into ``dst``; returns the count.

    Lossless by construction: records stream through unmodified (same
    dict, hence the same JSON text and bit-identical floats), so task
    hashes — and with them ``--resume`` — survive any
    jsonl↔sharded↔sqlite round trip, and aggregates computed from the
    copy equal the original's bit for bit.  Duplicate hashes collapse
    to their last-wins record, exactly as every reader already folds
    them.

    ``dst`` must be empty (or not exist): merging two live stores is a
    decision the caller should make explicitly, record by record, not
    a silent side effect of a copy.
    """
    with _opened_pair(src, dst, verb="migrate") as (src_store, dst_store):
        moved = 0
        seen: "set[str]" = set()
        for rec in src_store.iter_records():
            dst_store.append(rec)
            if rec["hash"] not in seen:
                seen.add(rec["hash"])
                moved += 1
        return moved


@contextmanager
def _opened_pair(
    src: "StoreBackend | str | os.PathLike[str]",
    dst: "StoreBackend | str | os.PathLike[str]",
    *,
    verb: str,
) -> "Iterator[tuple[StoreBackend, StoreBackend]]":
    """Resolve a (src, dst) store pair, refusing self-targets and
    populated destinations — shared by migrate / compact / repair."""
    with opened_store(src) as src_store, opened_store(dst) as dst_store:
        if pathlib.Path(src_store.path).resolve() == pathlib.Path(dst_store.path).resolve():
            raise ValueError(f"cannot {verb} a store onto itself ({src_store.url})")
        if dst_store.count():
            raise ValueError(
                f"destination store {dst_store.url} already has records; "
                f"{verb} into an empty store"
            )
        yield src_store, dst_store


def compact_store(
    src: "StoreBackend | str | os.PathLike[str]",
    dst: "StoreBackend | str | os.PathLike[str]",
    *,
    drop_quarantined: bool = False,
) -> int:
    """Write ``src``'s folded view into an empty ``dst``; returns the
    record count written.

    Compaction applies exactly the fold every reader performs —
    duplicate hashes collapse to their *last* occurrence, preserving
    first-appearance order (the JSONL fold order, i.e. plain dict
    semantics) — and drops ``kind="telemetry"`` records, which
    describe past runs of the source store, not the result set.  Task
    records, including their float payloads, pass through bit-for-bit,
    so reports over the compacted store equal reports over the source
    minus its telemetry block.

    ``drop_quarantined=True`` also drops ``kind="quarantine"`` records
    (:mod:`repro.chaos`), which un-settles those poison tasks: a
    resumed campaign against the compacted store will retry them.

    ``kind="partial"`` records (in-flight adaptive checkpoints,
    :mod:`repro.adaptive`) survive only while their task is still
    unsettled — once a final (or kept quarantine) record exists for the
    task, its partial is a dead checkpoint and compaction drops it.

    Like :func:`migrate_store`, ``dst`` must be empty or absent.
    """
    with _opened_pair(src, dst, verb="compact") as (src_store, dst_store):
        latest: "dict[str, dict]" = {}
        for rec in src_store.iter_records():
            if rec.get("kind") == "telemetry":
                continue
            if drop_quarantined and rec.get("kind") == "quarantine":
                # Last-wins applies before the drop: a quarantine record
                # is the hash's latest state, so dropping it un-settles
                # the task entirely (any earlier record for the hash
                # goes too).
                latest.pop(rec["hash"], None)
                continue
            latest[rec["hash"]] = rec
        # Partial checkpoints are keyed "partial:<task_hash>"; a settled
        # task (any surviving record under the bare hash) obsoletes its
        # checkpoint, while an unsettled one keeps it so --resume
        # against the compacted store recomputes nothing.
        for h in [
            h for h, rec in latest.items()
            if rec.get("kind") == "partial" and rec.get("task_hash") in latest
        ]:
            del latest[h]
        for rec in latest.values():
            dst_store.append(rec)
        return len(latest)


def verify_store(spec: "StoreBackend | str | os.PathLike[str]") -> dict:
    """Integrity-scan a store without raising: counts of intact
    (sealed / unsealed) and corrupt records plus a ``torn_tail`` flag
    — see :meth:`repro.store.protocol.StoreBackend.verify`."""
    with opened_store(spec) as store:
        report = store.verify()
        report["url"] = store.url
        return report


def repair_store(
    src: "StoreBackend | str | os.PathLike[str]",
    dst: "StoreBackend | str | os.PathLike[str]",
) -> "tuple[int, int]":
    """Re-derive a clean store from ``src``'s intact records.

    Streams every record that parses and passes its checksum into an
    empty ``dst`` (corrupt lines/rows are skipped and counted, never
    raised) and returns ``(kept, dropped)``.  The dropped records'
    task hashes are absent from ``dst``, so a resumed campaign simply
    re-executes those tasks — repair never invents data.
    """
    with _opened_pair(src, dst, verb="repair") as (src_store, dst_store):
        before = verify_store(src_store)
        kept_hashes: "set[str]" = set()
        for rec in src_store.iter_intact():
            dst_store.append(rec)
            kept_hashes.add(rec["hash"])
        return len(kept_hashes), int(before["corrupt"])
