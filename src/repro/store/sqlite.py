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
import sqlite3
import time
from typing import Iterable, Iterator

from repro.store.protocol import StoreBackend, StoreError

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    hash TEXT PRIMARY KEY,
    body TEXT NOT NULL
);
"""

#: How long a writer waits on a locked database before giving up (ms).
_BUSY_TIMEOUT_MS = 30_000


class SqliteStore(StoreBackend):
    """Campaign result store backed by a WAL-mode SQLite database.

    Construction never touches the filesystem (so ``sqlite:new.db`` can
    be validated and inspected before it exists); the database file and
    schema are created on first append.
    """

    scheme = "sqlite"

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        super().__init__(path)
        self._conn: "sqlite3.Connection | None" = None
        self._pid: "int | None" = None

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
    # StoreBackend layout
    # ------------------------------------------------------------------
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

    def _entries(self) -> "Iterator[tuple[str, str, str]]":
        """Every row in first-insertion (rowid) order, keyed by its
        ``hash`` column, which the body must match.

        A hash appears at most once — the upsert already applied
        last-wins — and transactional appends leave no benign crash
        footprint, so every damaged row is reported.
        """
        conn = self._connect(create=False)
        if conn is not None:
            for row_hash, body in conn.execute("SELECT hash, body FROM records ORDER BY rowid"):
                yield f"{self.path} (hash {row_hash!r})", body, row_hash

    def count(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (n,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
        return int(n)

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None
