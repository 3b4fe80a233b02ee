"""JSONL result store: crash-safe persistence and resume.

One campaign store is one append-only file of JSON records, one per
line, each carrying the task's content hash, its full parameters and
its aggregated statistics.  Append-only JSONL gives exactly the
durability model a long campaign needs:

- every completed task is flushed to disk as soon as its result
  arrives, so killing the process loses at most the tasks in flight;
- a crash mid-write leaves at most one truncated *trailing* line,
  which the readers silently drop (the task simply reruns on resume)
  — corruption anywhere *else* is a real integrity problem and raises
  :class:`StoreError`;
- resuming is a pure set difference: tasks whose hash already appears
  in the store are served from it, everything else runs.

Floats survive the JSON round-trip exactly (``json`` serializes via
``repr``), so aggregates computed from resumed records are
bit-identical to a single uninterrupted run.

Reading is *streaming*: :meth:`ResultStore.iter_records` yields one
record at a time in file order without ever holding the file body in
memory, so a multi-GB store can be folded incrementally
(``repro report``, resume matching).  :meth:`ResultStore.load` remains
the materialize-everything convenience built on top of it.

Since the hardening layer (``docs/DESIGN.md`` §10) every appended
record is additionally sealed with a per-record CRC32
(:mod:`repro.store.integrity`); readers verify and strip the seal, so
bit rot is *detected* (not silently aggregated) while loaded records
still compare equal to what was appended, and pre-checksum stores read
unchanged.

This class is the ``jsonl`` backend of the pluggable storage layer
(:mod:`repro.store`, ``docs/DESIGN.md`` §9) — the default one, and the
durability model the other backends must match.
"""

from __future__ import annotations

import os
import pathlib
import warnings
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import TaskSpec

__all__ = ["ResultStore", "StoreError", "StoreIntegrityWarning"]


class StoreError(RuntimeError):
    """A result store violates its integrity contract."""


class StoreIntegrityWarning(UserWarning):
    """``repro store repair`` skipped a corrupt record.

    Emitted (once per distinct site, the default warning dedup) by
    :meth:`ResultStore.iter_intact`; the skip is also counted on the
    store instance (``corrupt_skipped``) and in ``METRICS`` as
    ``store.corrupt_skipped``, so it surfaces as a number, not just a
    warning.
    """


#: Fast-path prefix for extracting a record's hash without parsing the
#: whole payload: every record the library writes starts exactly like
#: this (``json.dumps`` of a dict whose first key is ``"hash"``).
_HASH_PREFIX = '{"hash": "'

#: How to recover from a corrupt complete line, named by every
#: :class:`StoreError` that reports one.
_REPAIR_HINT = (
    "; copy the intact records to a new store with "
    "`repro store repair SRC DST`, then --resume against it"
)


class ResultStore:
    """Append-only JSONL store of per-task result records.

    Parameters
    ----------
    path:
        File to append to; created (with parents) on first write.

    The file has one writer.  The store is usable as a context
    manager; :meth:`close` is also safe to call repeatedly.  Records are plain dicts with at least a
    ``"hash"`` key (see :func:`repro.campaign.executor.execute_task`
    for the full schema); on append each is sealed with a per-record
    CRC32 (:mod:`repro.store.integrity`), and readers verify and strip
    the seal, so loaded records compare equal to the records that were
    appended.  Pre-checksum stores read fine (no seal → no verdict).
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = pathlib.Path(path)
        #: Corrupt records :meth:`iter_intact` skipped since construction.
        self.corrupt_skipped = 0
        self._fh = None

    @property
    def url(self) -> str:
        """Canonical store URL (:func:`repro.store.open_store` form)."""
        return str(self.path)

    def _complete_lines(self) -> "Iterator[tuple[int, str]]":
        """Stream ``(lineno, text)`` for every *complete* line.

        A torn trailing write — the crash footprint, and nothing else:
        records are written as one ``line + "\\n"`` chunk, so an
        interrupted append leaves a tail with *no* final newline — is
        dropped silently.  The file is read incrementally; memory use
        is one line, never the file.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            prev: "bytes | None" = None
            lineno = 0
            for raw in fh:
                if prev is not None:
                    lineno += 1
                    yield lineno, prev.decode()
                prev = raw
            if prev is not None and prev.endswith(b"\n"):
                yield lineno + 1, prev.decode()
            # else: torn trailing write — drop it unconditionally; even
            # if the fragment happens to parse (flush cut exactly at
            # the closing brace), the next append() truncates it from
            # disk, so serving it as a cached record here would lose it
            # silently.

    def _parse(self, lineno: int, line: str) -> "tuple[dict, bool | None]":
        """Decode one complete line into ``(record, verdict)`` or raise
        :class:`StoreError`.

        A malformed line anywhere but the torn tail — including a
        corrupt but newline-terminated final record — means the file
        was hand-edited or damaged.  A line that parses but fails its
        CRC32 seal (:mod:`repro.store.integrity`) is bit rot and equally
        corrupt.  Either error names ``repro store repair``.  The
        returned record has the seal stripped (it equals the appended
        one); the verdict is ``True`` or ``None`` (unsealed).
        """
        from repro.store.integrity import open_sealed

        try:
            # The seal covers the record's bytes, not its line ending.
            rec, verdict = open_sealed(line[:-1] if line.endswith("\n") else line)
            if not isinstance(rec, dict) or "hash" not in rec:
                raise ValueError("record is not a dict with a 'hash' key")
        except ValueError as exc:
            raise StoreError(
                f"{self.path}:{lineno}: corrupt record ({exc}){_REPAIR_HINT}"
            ) from exc
        if verdict is False:
            raise StoreError(
                f"{self.path}:{lineno}: record failed its checksum "
                f"(hash {str(rec.get('hash'))[:16]!r}...){_REPAIR_HINT}"
            )
        return rec, verdict

    def _skip_corrupt(self, error: StoreError) -> None:
        """Count and announce one corrupt line that repair leaves out."""
        self.corrupt_skipped += 1
        from repro.obs.metrics import METRICS

        METRICS.inc("store.corrupt_skipped")
        reason = str(error).removesuffix(_REPAIR_HINT)
        warnings.warn(
            f"skipping corrupt store record ({reason})", StoreIntegrityWarning,
            stacklevel=3,
        )

    def iter_records(self) -> "Iterator[dict]":
        """Stream every record in file order (duplicates included).

        This is the storage-layer primitive aggregation folds over:
        constant memory regardless of store size.  Duplicate hashes are
        *not* collapsed here — a fold that needs last-wins semantics
        (like :meth:`load`) applies them itself, which a plain dict
        update does for free.  A corrupt complete line raises
        :class:`StoreError` (see :meth:`_parse`).
        """
        for lineno, line in self._complete_lines():
            if line.strip():  # blank lines carry no record
                yield self._parse(lineno, line)[0]

    def iter_intact(self) -> "Iterator[dict]":
        """Stream only the records that parse and verify — the ``repro
        store repair`` primitive (corrupt lines are skipped with a
        counted :class:`StoreIntegrityWarning`, never raised)."""
        for lineno, line in self._complete_lines():
            if not line.strip():
                continue
            try:
                yield self._parse(lineno, line)[0]
            except StoreError as exc:
                self._skip_corrupt(exc)

    def load(self) -> "dict[str, dict]":
        """Read all records, keyed by task hash (duplicates: last wins).

        A torn *final* line is dropped silently; a malformed line
        anywhere else raises :class:`StoreError` — see
        :meth:`iter_records`, which this materializes.
        """
        records: dict[str, dict] = {}
        for rec in self.iter_records():
            records[rec["hash"]] = rec
        return records

    def append(self, record: dict) -> None:
        """Durably append one record: :meth:`append_many` of one."""
        self.append_many((record,))

    def append_many(self, records: "Iterable[dict]") -> None:
        """Seal each record with its CRC32 (:mod:`repro.store.integrity`)
        and flush the batch to the OS as one ``write``; a record without
        ``"hash"`` rejects the whole batch first.  A crash leaves whole
        lines plus at most one torn tail.
        """
        from repro.store.integrity import seal_text

        records = list(records)
        if any("hash" not in record for record in records):
            raise ValueError("record must carry a 'hash' key")
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._fh = open(self.path, "a")
        self._fh.write("".join(seal_text(record) + "\n" for record in records))
        self._fh.flush()

    def _repair_torn_tail(self) -> None:
        """Truncate a torn trailing write before appending after it.

        Each record is written as one ``line + "\\n"`` chunk, so a
        crash mid-append leaves a tail with *no* final newline.  Left
        in place, the next appended record would turn that fragment
        into a corrupt mid-file line and poison every later
        :meth:`load`, so the file is cut back to its last newline.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            try:
                fh.seek(-1, os.SEEK_END)
            except OSError:  # empty file
                return
            if fh.read(1) == b"\n":
                return
            size = fh.tell()
            # Walk back in fixed-size blocks to find the last newline —
            # the scan is bounded by the torn tail's length, not the
            # file's.
            block = 4096
            keep = 0
            pos = size
            while pos > 0:
                step = min(block, pos)
                fh.seek(pos - step)
                chunk = fh.read(step)
                nl = chunk.rfind(b"\n")
                if nl != -1:
                    keep = pos - step + nl + 1
                    break
                pos -= step
        with open(self.path, "rb+") as fh:
            fh.truncate(keep)

    def resume(
        self, tasks: "list[TaskSpec]"
    ) -> "tuple[dict[str, dict], list[TaskSpec]]":
        """Split ``tasks`` into (completed records, still-pending tasks).

        Streaming: only records whose hash one of ``tasks`` actually
        carries are kept, so resuming against a store that also holds
        foreign campaigns (or telemetry) costs memory proportional to
        the task list, not the store.
        """
        from repro.store.protocol import default_resume

        return default_resume(self, tasks)

    def count(self) -> int:
        """Number of distinct record hashes, without materializing
        payloads.

        Each line's hash is sliced straight out of the library's own
        serialization prefix (``{"hash": "...``) when it matches;
        anything else — hand-written records with reordered keys,
        escaped quotes — falls back to a full JSON parse of that line
        only.  Corrupt lines raise :class:`StoreError` exactly as
        :meth:`load` would.
        """
        hashes: set[str] = set()
        for lineno, line in self._complete_lines():
            if not line.strip():
                continue
            h = self._fast_hash(line)
            if h is None:
                h = self._parse(lineno, line)[0]["hash"]
            hashes.add(h)
        return len(hashes)

    @staticmethod
    def _fast_hash(line: str) -> "str | None":
        """Extract the hash from a library-serialized line, or ``None``
        when the line needs a real parse (foreign key order, escapes).
        The line must also close its JSON object — a newline-terminated
        torn fragment starts like a real record but never ends in
        ``}``, and must raise, not be counted."""
        if not line.startswith(_HASH_PREFIX) or not line.rstrip().endswith("}"):
            return None
        end = line.find('"', len(_HASH_PREFIX))
        if end == -1:
            return None
        h = line[len(_HASH_PREFIX):end]
        if "\\" in h:
            return None
        return h

    def verify(self) -> dict:
        """Integrity scan for ``repro store verify``: walk every
        complete line, parse it and check its seal, without ever
        raising — corruption becomes numbers, not exceptions.

        Returns ``{"records", "corrupt", "sealed", "unsealed",
        "torn_tail"}``: intact record lines (sealed = carrying a
        verified CRC32, unsealed = pre-checksum records accepted as
        is), corrupt lines (malformed or failing their seal), and
        whether the file currently ends in a torn write (a live or
        crashed writer's footprint — salvaged on the next append).
        """
        sealed = unsealed = corrupt = 0
        for lineno, line in self._complete_lines():
            if not line.strip():
                continue
            try:
                verdict = self._parse(lineno, line)[1]
            except StoreError:
                corrupt += 1
            else:
                sealed += verdict is True
                unsealed += verdict is None
        torn = False
        if self.path.exists() and self.path.stat().st_size:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
        return {
            "records": sealed + unsealed,
            "corrupt": corrupt,
            "sealed": sealed,
            "unsealed": unsealed,
            "torn_tail": torn,
        }

    def info(self) -> dict:
        """Layout facts for ``repro store info`` — streams hashes only,
        never record payloads."""
        exists = self.path.exists()
        return {
            "backend": "jsonl",
            "url": self.url,
            "exists": exists,
            "records": self.count(),
            "bytes": self.path.stat().st_size if exists else 0,
        }

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count()
