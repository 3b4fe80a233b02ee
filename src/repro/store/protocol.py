"""The storage-backend contract and the base class that keeps it
(``docs/DESIGN.md`` §9).

A campaign store persists one JSON-serializable *record* per completed
task, keyed by the task's content hash.  :class:`StoreBackend` writes
the contract once; a backend contributes only its layout — how sealed
record texts are written (``append_many``) and read back in order
(``_entries``), how distinct hashes are counted (``count``) and what
to release (``close``).  The scheme table in :mod:`repro.store`
resolves URL-style selectors (``sharded:dir/``, ``sqlite:file.db``,
bare path → ``jsonl``) to instances.

The contract, in order of importance:

Durability (crash salvage)
    ``append_many`` makes a batch durable *before* returning, up to
    the backend's declared crash footprint: a crash may lose any part
    of the batch in flight (all of it under SQLite, whose batch is one
    transaction) but must never corrupt previously appended records.
    ``append(r)`` is ``append_many([r])``, the single write path.
    Readers silently drop the crash footprint (a torn trailing line
    per JSONL file; an uncommitted transaction under SQLite) — the
    task simply reruns on resume — and raise :class:`StoreError`,
    naming ``repro store repair``, for damage anywhere else.

Exact floats
    Records are stored such that every float survives the round trip
    bit for bit (JSON text via ``repr``), sealed with a per-record
    CRC32 (:mod:`repro.store.integrity`).  This is what makes resumed
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
    stores.  Every reader — ``iter_records``, ``iter_intact``,
    ``verify``, ``load``, ``resume`` — decodes through one function,
    so the backends share one degraded mode: ``iter_intact`` (repair's
    reader) skips a corrupt record with a counted
    :class:`StoreIntegrityWarning` instead of raising.

One writer: the dispatcher
    A campaign's store has one writer, the process that runs
    :func:`repro.campaign.run_campaign`; ``--jobs N`` workers send
    their records up a pipe and never open the store
    (:mod:`repro.campaign.serve`).
"""

from __future__ import annotations

import abc
import os
import pathlib
import warnings
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import TaskSpec

__all__ = ["StoreBackend", "StoreError", "StoreIntegrityWarning"]


class StoreError(RuntimeError):
    """A result store violates its integrity contract."""


class StoreIntegrityWarning(UserWarning):
    """``repro store repair`` skipped a corrupt record.

    Emitted (once per distinct site, the default warning dedup) by
    :meth:`StoreBackend.iter_intact`; the skip is also counted on the
    store instance (``corrupt_skipped``) and in ``METRICS`` as
    ``store.corrupt_skipped``, so it surfaces as a number, not just a
    warning.
    """


#: How to recover from a corrupt record, named by every
#: :class:`StoreError` that reports one.
_REPAIR_HINT = (
    "; copy the intact records to a new store with "
    "`repro store repair SRC DST`, then --resume against it"
)


class StoreBackend(abc.ABC):
    """Base class of the campaign result stores.

    Backends are cheap to construct and must not touch the filesystem
    before the first append (so :func:`repro.store.open_store` can be
    used for validation and inspection of not-yet-existing stores);
    reads on a store that was never written behave as reads of an
    empty store.  A store is usable as a context manager; ``close`` is
    safe to call repeatedly.
    """

    #: Scheme naming the backend in store URLs and ``repro store info``.
    scheme: str

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        #: Filesystem location backing the store (file or directory).
        self.path = pathlib.Path(path)
        #: Corrupt records :meth:`iter_intact` skipped since construction.
        self.corrupt_skipped = 0

    @property
    def url(self) -> str:
        """Canonical selector that :func:`repro.store.open_store`
        resolves back to an equivalent store."""
        return f"{self.scheme}:{self.path}"

    # ------------------------------------------------------------------
    # layout: what each backend provides
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def append_many(self, records: "Iterable[dict]") -> None:
        """Seal and durably write a batch of records (each must carry a
        ``"hash"`` key; one without rejects the whole batch first)."""

    @abc.abstractmethod
    def _entries(self) -> "Iterator[tuple[str, str, str | None]]":
        """Stream ``(where, text, key)`` for every stored record in
        stable order: its location for error messages, its sealed JSON
        text and the hash the layout files it under (``None`` when the
        text alone carries it).  The crash footprint is dropped here."""

    @abc.abstractmethod
    def count(self) -> int:
        """Number of distinct record hashes (cheap; no payload parse)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release file handles/connections (idempotent)."""

    def _torn_tail(self) -> bool:
        """Whether the store ends in a torn write right now."""
        return False

    # ------------------------------------------------------------------
    # the contract, once
    # ------------------------------------------------------------------
    def _decode(self, where: str, text: str, key: "str | None") -> "tuple[dict, bool | None]":
        """Parse and verify one stored text: ``(record, verdict)`` with
        the seal stripped (the record equals the appended one) and the
        verdict ``True`` (sealed) or ``None`` (pre-checksum record).

        Malformed JSON, a record that is not a dict with a ``"hash"``
        key, a hash other than the layout's ``key`` and a failing CRC32
        seal all raise :class:`StoreError` naming ``repro store
        repair``.
        """
        from repro.store.integrity import open_sealed

        try:
            rec, verdict = open_sealed(text)
            if not isinstance(rec, dict) or "hash" not in rec:
                raise ValueError("record is not a dict with a 'hash' key")
            if key is not None and rec["hash"] != key:
                raise ValueError("record body does not match its key")
        except ValueError as exc:
            raise StoreError(f"{where}: corrupt record ({exc}){_REPAIR_HINT}") from exc
        if verdict is False:
            raise StoreError(
                f"{where}: record failed its checksum "
                f"(hash {str(rec['hash'])[:16]!r}...){_REPAIR_HINT}"
            )
        return rec, verdict

    def append(self, record: dict) -> None:
        """Durably append one record: :meth:`append_many` of one."""
        self.append_many((record,))

    def iter_records(self) -> "Iterator[dict]":
        """Stream every record in stable order (duplicates included).

        This is the storage-layer primitive aggregation folds over:
        constant memory regardless of store size.  Duplicate hashes are
        *not* collapsed here — a fold that needs last-wins semantics
        (like :meth:`load`) applies them itself, which a plain dict
        update does for free.  A corrupt record raises
        :class:`StoreError`.
        """
        decode = self._decode
        for where, text, key in self._entries():
            yield decode(where, text, key)[0]

    def iter_intact(self) -> "Iterator[dict]":
        """Stream only the records that parse and verify — the ``repro
        store repair`` primitive.  A corrupt record is skipped with a
        :class:`StoreIntegrityWarning` pointing at the caller, and
        counted in :attr:`corrupt_skipped` and ``METRICS``."""
        for where, text, key in self._entries():
            try:
                rec = self._decode(where, text, key)[0]
            except StoreError as exc:
                self._skip_corrupt(exc)
            else:
                yield rec

    def _skip_corrupt(self, error: StoreError) -> None:
        """Count and announce one corrupt record that repair leaves out."""
        self.corrupt_skipped += 1
        from repro.obs.metrics import METRICS

        METRICS.inc("store.corrupt_skipped")
        reason = str(error).removesuffix(_REPAIR_HINT)
        warnings.warn(
            f"skipping corrupt store record ({reason})", StoreIntegrityWarning,
            stacklevel=3,  # _skip_corrupt < iter_intact < its caller
        )

    def verify(self) -> dict:
        """Integrity scan for ``repro store verify``: decode every
        record without ever raising — corruption becomes numbers, not
        exceptions.

        Returns ``{"records", "corrupt", "sealed", "unsealed",
        "torn_tail"}``: intact records (sealed = carrying a verified
        CRC32, unsealed = pre-checksum records accepted as is), corrupt
        ones (malformed, mis-keyed or failing their seal), and whether
        the store currently ends in a torn write (a live or crashed
        writer's footprint — salvaged on the next append).
        """
        sealed = unsealed = corrupt = 0
        for where, text, key in self._entries():
            try:
                verdict = self._decode(where, text, key)[1]
            except StoreError:
                corrupt += 1
            else:
                sealed += verdict is True
                unsealed += verdict is None
        return {
            "records": sealed + unsealed,
            "corrupt": corrupt,
            "sealed": sealed,
            "unsealed": unsealed,
            "torn_tail": self._torn_tail(),
        }

    def load(self) -> "dict[str, dict]":
        """Materialize all records keyed by hash (last wins)."""
        return {rec["hash"]: rec for rec in self.iter_records()}

    def resume(
        self, tasks: "list[TaskSpec]"
    ) -> "tuple[dict[str, dict], list[TaskSpec]]":
        """Split ``tasks`` into (completed records, still-pending tasks).

        Streaming: only records whose hash one of ``tasks`` actually
        carries are kept, so resuming against a store that also holds
        foreign campaigns (or telemetry) costs memory proportional to
        the task list, not the store.
        """
        hashes = [t.task_hash() for t in tasks]
        wanted = set(hashes)
        done: "dict[str, dict]" = {}
        for rec in self.iter_records():
            if rec["hash"] in wanted:
                done[rec["hash"]] = rec  # duplicates: last wins
        pending = [t for t, h in zip(tasks, hashes) if h not in done]
        return done, pending

    def info(self) -> dict:
        """Layout facts for ``repro store info`` — counts hashes only,
        never parses record payloads."""
        exists = self.path.exists()
        return {
            "backend": self.scheme,
            "url": self.url,
            "exists": exists,
            "records": self.count(),
            "bytes": self.path.stat().st_size if exists else 0,
        }

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count()
