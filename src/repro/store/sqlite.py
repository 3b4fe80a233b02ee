"""SQLite store: transactional campaign persistence.

One store is one SQLite database in WAL mode::

    records(hash TEXT PRIMARY KEY, body TEXT)   -- body = json.dumps(record)

(Stores written by older versions may also hold a ``leases`` table;
nothing reads it, so they open, report and resume unchanged.)

Records keep the *same JSON text* the JSONL backends write — floats
round-trip via ``repr`` bit for bit, so migrating a store between
backends (:func:`repro.store.migrate_store`) is lossless and resumed
aggregates stay bit-identical.

Durability and concurrency come from SQLite itself:

- WAL journaling makes every ``append`` / ``append_many`` one atomic
  committed transaction — the crash footprint is "the record (or
  batch) in flight", never a torn line, so no salvage pass is needed;
- ``INSERT ... ON CONFLICT(hash) DO UPDATE`` gives the store's
  last-wins identity natively while keeping the record's original
  ``rowid`` — iteration order is first-insertion order with updated
  values, exactly the dict-fold semantics of the JSONL backends;
- connections from several processes (the dispatcher appending, a
  ``repro report`` reading) serialize on SQLite's own locking, with a
  generous ``busy_timeout``.

Connections are per ``(instance, pid)``: a forked campaign worker
never reuses its parent's connection (SQLite connections must not
cross ``fork``), it lazily opens its own.
"""

from __future__ import annotations

import os
import pathlib
import sqlite3
import time
from typing import Iterable, Iterator

from repro.store.jsonl import StoreError
from repro.store.protocol import default_resume

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    hash TEXT PRIMARY KEY,
    body TEXT NOT NULL
);
"""

#: How long a writer waits on a locked database before giving up (ms).
_BUSY_TIMEOUT_MS = 30_000


class SqliteStore:
    """Campaign result store backed by a WAL-mode SQLite database.

    Construction never touches the filesystem (so ``sqlite:new.db`` can
    be validated and inspected before it exists); the database file and
    schema are created on first append.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = pathlib.Path(path)
        self._conn: "sqlite3.Connection | None" = None
        self._pid: "int | None" = None

    @property
    def url(self) -> str:
        return f"sqlite:{self.path}"

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect(self, *, create: bool) -> "sqlite3.Connection | None":
        """The process-local connection; ``None`` for reads of a store
        that does not exist yet."""
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        if self._conn is not None:
            # Forked child: the inherited connection belongs to the
            # parent.  Drop the reference without closing (closing
            # would roll back the parent's WAL state from the wrong
            # process) and open our own.
            self._conn = None
        if not create and not self.path.exists():
            return None
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # The schema + WAL-switch sequence below can hit SQLITE_BUSY in a
        # form the busy handler never retries (a lock-upgrade deadlock
        # when several processes open a *fresh* database at once), so the
        # whole open sequence retries within the same time budget.
        deadline = time.monotonic() + _BUSY_TIMEOUT_MS / 1000
        while True:
            conn = None
            try:
                conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_MS / 1000)
                conn.executescript(_SCHEMA)
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.commit()
                break
            except sqlite3.Error as exc:
                if conn is not None:
                    conn.close()
                contended = isinstance(exc, sqlite3.OperationalError) and (
                    "locked" in str(exc) or "busy" in str(exc)
                )
                if contended and time.monotonic() < deadline:
                    time.sleep(0.05)
                    continue
                raise StoreError(
                    f"{self.path}: cannot open sqlite store ({exc})"
                ) from exc
        self._conn = conn
        self._pid = os.getpid()
        return conn

    # ------------------------------------------------------------------
    # StoreBackend protocol
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record: :meth:`append_many` of one."""
        self.append_many((record,))

    def append_many(self, records: "Iterable[dict]") -> None:
        """Seal each record (per-record CRC32,
        :mod:`repro.store.integrity`) and upsert the batch by hash in
        one committed transaction: all of it is durable on return, none
        of it if the process dies first (or a record lacks ``"hash"``)."""
        from repro.store.integrity import seal_text

        def rows():
            for record in records:
                if "hash" not in record:
                    raise ValueError("record must carry a 'hash' key")
                yield record["hash"], seal_text(record)

        conn = self._connect(create=True)
        with conn:
            conn.executemany(
                "INSERT INTO records(hash, body) VALUES(?, ?) "
                "ON CONFLICT(hash) DO UPDATE SET body = excluded.body",
                rows(),
            )

    def _rows(self) -> "Iterator[tuple[str, str]]":
        """``(hash, body)`` of every row in first-insertion order."""
        conn = self._connect(create=False)
        if conn is not None:
            yield from conn.execute("SELECT hash, body FROM records ORDER BY rowid")

    def _decode(self, row_hash: str, body: str) -> "tuple[dict, bool | None]":
        """Parse and verify one row's body: ``(record, verdict)`` with
        the seal stripped and the verdict ``True`` (sealed) or ``None``
        (pre-checksum record).  Raises :class:`StoreError` on malformed
        JSON, a hash/key mismatch, or a failing CRC32 seal."""
        from repro.store.integrity import open_sealed

        try:
            rec, verdict = open_sealed(body)
            if not isinstance(rec, dict) or rec.get("hash") != row_hash:
                raise ValueError("record body does not match its key")
        except ValueError as exc:
            raise StoreError(
                f"{self.path}: corrupt record for hash {row_hash!r} ({exc})"
            ) from exc
        if verdict is False:
            raise StoreError(
                f"{self.path}: record {row_hash!r} failed its checksum"
            )
        return rec, verdict

    def iter_records(self) -> "Iterator[dict]":
        """Stream records in first-insertion (rowid) order.

        Unlike the JSONL backends a hash appears at most once here —
        the upsert already applied last-wins — so downstream dict folds
        are no-ops, not corrections.  Corruption (malformed body, a
        hash/key mismatch, a failing CRC32 seal) raises
        :class:`StoreError`: SQLite's transactional appends mean there
        is no benign crash footprint to tolerate here.
        """
        for row_hash, body in self._rows():
            yield self._decode(row_hash, body)[0]

    def iter_intact(self) -> "Iterator[dict]":
        """Stream only the rows that parse and verify (``repro store
        repair``); corrupt rows are skipped and counted in METRICS."""
        for row_hash, body in self._rows():
            try:
                yield self._decode(row_hash, body)[0]
            except StoreError:
                from repro.obs.metrics import METRICS

                METRICS.inc("store.corrupt_skipped")

    def verify(self) -> dict:
        """Integrity scan for ``repro store verify`` (see
        :meth:`repro.store.jsonl.ResultStore.verify`; SQLite has no
        torn tails, so ``torn_tail`` is always ``False``)."""
        sealed = unsealed = corrupt = 0
        for row_hash, body in self._rows():
            try:
                verdict = self._decode(row_hash, body)[1]
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
            "torn_tail": False,
        }

    def load(self) -> "dict[str, dict]":
        return {rec["hash"]: rec for rec in self.iter_records()}

    def resume(self, tasks):
        return default_resume(self, tasks)

    def count(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (n,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
        return int(n)

    def info(self) -> dict:
        """Layout facts for ``repro store info``: the record count
        straight from SQL, no payloads."""
        exists = self.path.exists()
        return {
            "backend": "sqlite",
            "url": self.url,
            "exists": exists,
            "records": self.count(),
            "bytes": self.path.stat().st_size if exists else 0,
        }

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count()
