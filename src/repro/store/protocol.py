"""The storage-backend contract (``docs/DESIGN.md`` §9).

A campaign store persists one JSON-serializable *record* per completed
task, keyed by the task's content hash.  :class:`StoreBackend` is the
structural protocol every backend implements; the scheme table in
:mod:`repro.store` resolves URL-style selectors (``sharded:dir/``,
``sqlite:file.db``, bare path → ``jsonl``) to instances.

The contract, in order of importance:

Durability (crash salvage)
    ``append`` makes the record durable *before* returning, up to the
    backend's declared crash footprint: a crash may lose the record in
    flight but must never corrupt previously appended ones.
    ``append_many`` is the same promise for a batch — ``append(r)`` is
    ``append_many([r])``, the single write path — and a crash may lose
    any part of the batch in flight (all of it under SQLite, whose
    batch is one transaction).  Readers
    silently drop the crash footprint (a torn trailing line per JSONL
    file; an uncommitted transaction under SQLite) — the task simply
    reruns on resume — and raise
    :class:`~repro.store.jsonl.StoreError` for damage anywhere
    else.

Exact floats
    Records are stored such that every float survives the round trip
    bit for bit (JSON text via ``repr``).  This is what makes resumed
    and migrated aggregates bit-identical to a single uninterrupted
    run, across *any* pair of backends.

Last-wins identity
    Records are keyed by their ``"hash"``.  Appending the same hash
    again replaces the earlier record's *value* while keeping its
    original position in iteration order — exactly what a Python dict
    fold over an append log does, and what SQLite's upsert-by-hash
    does natively.

Streaming reads
    ``iter_records`` yields records one at a time, in stable order,
    without materializing the store; every aggregation in the library
    folds over it incrementally, so reports work on partial multi-GB
    stores.

One writer: the dispatcher
    A campaign's store has one writer, the process that runs
    :func:`repro.campaign.run_campaign`; ``--jobs N`` workers send
    their records up a pipe and never open the store
    (:mod:`repro.campaign.serve`).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import TaskSpec

__all__ = ["StoreBackend", "append_many"]


@runtime_checkable
class StoreBackend(Protocol):
    """Structural protocol for campaign result stores.

    Implementations are cheap to construct and must not touch the
    filesystem before the first ``append`` (so ``open_store`` can be
    used for validation and inspection of not-yet-existing stores);
    reads on a store that was never written behave as reads of an
    empty store.
    """

    #: Filesystem location backing the store (file or directory).
    path: "os.PathLike[str]"

    @property
    def url(self) -> str:
        """Canonical selector that :func:`repro.store.open_store`
        resolves back to an equivalent store."""
        ...

    def append(self, record: dict) -> None:
        """Durably append one record (must carry a ``"hash"`` key).

        The shipped backends also offer ``append_many(records)`` — one
        committed transaction (sqlite) or one write (single-writer
        JSONL) per batch.  It is not a required member: callers go
        through :func:`append_many`, which falls back to this method.
        """
        ...

    def iter_records(self) -> "Iterator[dict]":
        """Stream records in stable order without materializing the
        store.  Duplicate hashes may appear; folds apply last-wins."""
        ...

    def load(self) -> "dict[str, dict]":
        """Materialize all records keyed by hash (last wins)."""
        ...

    def resume(
        self, tasks: "list[TaskSpec]"
    ) -> "tuple[dict[str, dict], list[TaskSpec]]":
        """Split ``tasks`` into (completed records, still-pending)."""
        ...

    def count(self) -> int:
        """Number of distinct record hashes (cheap; no payload parse)."""
        ...

    def close(self) -> None:
        """Release file handles/connections (idempotent)."""
        ...

    def __enter__(self) -> "StoreBackend": ...

    def __exit__(self, *exc_info: object) -> None: ...

    def __len__(self) -> int: ...


def append_many(store: StoreBackend, records: "Iterable[dict]") -> None:
    """Append a batch through the backend's own ``append_many``, or
    record by record for a backend (or test double) that only defines
    ``append``."""
    batch = getattr(store, "append_many", None)
    if batch is not None:
        batch(records)
    else:
        for record in records:
            store.append(record)


def default_resume(store: StoreBackend, tasks: "list[TaskSpec]"):
    """Shared streaming resume implementation for backends.

    Keeps only records whose hash one of ``tasks`` actually carries,
    so memory is proportional to the task list, not the store.
    """
    hashes = [t.task_hash() for t in tasks]
    wanted = set(hashes)
    done: "dict[str, dict]" = {}
    for rec in store.iter_records():
        if rec["hash"] in wanted:
            done[rec["hash"]] = rec  # duplicates: last wins
    pending = [t for t, h in zip(tasks, hashes) if h not in done]
    return done, pending
