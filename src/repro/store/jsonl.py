"""JSONL result store: crash-safe persistence and resume.

One campaign store is one append-only file of JSON records, one per
line, each carrying the task's content hash, its full parameters and
its aggregated statistics.  Append-only JSONL gives exactly the
durability model a long campaign needs:

- every completed task is flushed to disk as soon as its result
  arrives, so killing the process loses at most the tasks in flight;
- a crash mid-write leaves at most one truncated *trailing* line,
  which the readers silently drop (the task simply reruns on resume)
  and the next append truncates — corruption anywhere *else* is a
  real integrity problem and raises
  :class:`~repro.store.protocol.StoreError`;
- resuming is a pure set difference: tasks whose hash already appears
  in the store are served from it, everything else runs.

Reading is *streaming*: the file is read one complete line at a time,
never held in memory, so a multi-GB store can be folded incrementally
(``repro report``, resume matching).  Every record is sealed with a
per-record CRC32 (:mod:`repro.store.integrity`), verified and stripped
on read.

This class is the ``jsonl`` backend of the storage layer
(:mod:`repro.store`, ``docs/DESIGN.md`` §9) — the default one; the
readers, ``load``, ``resume`` and the integrity scan are
:class:`~repro.store.protocol.StoreBackend`'s.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from repro.store.protocol import StoreBackend

__all__ = ["ResultStore"]

#: Fast-path prefix for extracting a record's hash without parsing the
#: whole payload: every record the library writes starts exactly like
#: this (``json.dumps`` of a dict whose first key is ``"hash"``).
_HASH_PREFIX = '{"hash": "'


class ResultStore(StoreBackend):
    """Append-only JSONL store of per-task result records.

    Parameters
    ----------
    path:
        File to append to; created (with parents) on first write.

    The file has one writer.  Records are plain dicts with at least a
    ``"hash"`` key (see :func:`repro.campaign.executor.execute_task`
    for the full schema).
    """

    scheme = "jsonl"

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        super().__init__(path)
        self._fh = None

    @property
    def url(self) -> str:
        """Canonical store URL: the bare path."""
        return str(self.path)

    def _entries(self) -> "Iterator[tuple[str, str, None]]":
        """Stream ``(path:lineno, text, None)`` for every non-blank
        *complete* line, its newline stripped (the seal covers the
        record's bytes, not its line ending).

        A torn trailing write — the crash footprint, and nothing else:
        records are written as one ``line + "\\n"`` chunk, so an
        interrupted append leaves a tail with *no* final newline — is
        dropped silently.  The file is read incrementally; memory use
        is one line, never the file.
        """
        if not self.path.exists():
            return
        where = f"{self.path}:"
        with open(self.path, "rb") as fh:
            lineno = 0
            for raw in fh:
                lineno += 1
                if not raw.endswith(b"\n"):
                    # Torn trailing write: drop it unconditionally; even
                    # if the fragment happens to parse (flush cut exactly
                    # at the closing brace), the next append() truncates
                    # it from disk, so serving it here would lose it
                    # silently.
                    return
                text = raw[:-1].decode()
                if text.strip():  # blank lines carry no record
                    yield f"{where}{lineno}", text, None

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

    def _torn_tail(self) -> bool:
        """Whether the file currently ends without a newline."""
        if not self.path.exists() or not self.path.stat().st_size:
            return False
        with open(self.path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"

    def _repair_torn_tail(self) -> None:
        """Truncate a torn trailing write before appending after it.

        Left in place, the next appended record would turn that fragment
        into a corrupt mid-file line and poison every later read, so the
        file is cut back to its last newline.
        """
        if not self._torn_tail():
            return
        with open(self.path, "rb+") as fh:
            # Walk back in fixed-size blocks to find the last newline —
            # the scan is bounded by the torn tail's length, not the
            # file's.
            block = 4096
            keep = 0
            pos = fh.seek(0, os.SEEK_END)
            while pos > 0:
                step = min(block, pos)
                fh.seek(pos - step)
                nl = fh.read(step).rfind(b"\n")
                if nl != -1:
                    keep = pos - step + nl + 1
                    break
                pos -= step
            fh.truncate(keep)

    def count(self) -> int:
        """Number of distinct record hashes, without materializing
        payloads.

        Each line's hash is sliced straight out of the library's own
        serialization prefix (``{"hash": "...``) when it matches;
        anything else — hand-written records with reordered keys,
        escaped quotes — falls back to a full decode of that line
        only.  Corrupt lines raise
        :class:`~repro.store.protocol.StoreError` exactly as
        :meth:`load` would.
        """
        hashes: set[str] = set()
        for where, text, key in self._entries():
            h = _fast_hash(text)
            if h is None:
                h = self._decode(where, text, key)[0]["hash"]
            hashes.add(h)
        return len(hashes)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _fast_hash(text: str) -> "str | None":
    """Extract the hash from a library-serialized line, or ``None``
    when the line needs a real parse (foreign key order, escapes).
    The line must also close its JSON object — a newline-terminated
    torn fragment starts like a real record but never ends in ``}``,
    and must raise, not be counted."""
    if not text.startswith(_HASH_PREFIX) or not text.rstrip().endswith("}"):
        return None
    end = text.find('"', len(_HASH_PREFIX))
    if end == -1:
        return None
    h = text[len(_HASH_PREFIX):end]
    if "\\" in h:
        return None
    return h
