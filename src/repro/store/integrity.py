"""Per-record checksums: detect bit rot before it poisons aggregates.

Every record the JSONL-family stores write is *sealed* with a CRC32 of
its own serialized body, carried as a final ``"crc"`` key::

    {"hash": "...", "task": {...}, ..., "crc": "1:9f3a01c2"}

The value is ``<schema-version>:<crc32 of json.dumps(record-without-
crc) as 8 hex digits>``.  Design points:

- **Readers strip the seal.**  :func:`check_record` returns the record
  *without* the ``crc`` key, so records loaded from a store compare
  equal to the in-memory records that produced them — the campaign
  bit-identity contract ("store round trips are invisible") survives
  checksumming.
- **Old stores stay readable.**  A record without ``crc`` verifies as
  "unchecksummed" (``None``), never as corrupt; a seal with an unknown
  schema version is stripped but not judged (a newer writer may hash
  differently — refusing to guess beats false alarms).
- **The seal is last.**  ``crc`` is appended after every other key, so
  a torn prefix of a sealed line is never itself a parseable record —
  tearing cannot forge a passing checksum.
- **CRC32, not SHA.**  The threat is storage bit rot and torn
  concurrent writes, not adversaries; CRC32 is ~free next to the JSON
  serialization the append already pays (the campaign ledger times
  ``store.integrity.seal_us`` beside ``store.append_us``).

- **One pass per record.**  The stores write through
  :func:`seal_text` — one serialization, the CRC taken over the very
  bytes that go to disk — and read through :func:`open_sealed`, which
  verifies the bytes it was handed and only re-serializes
  (:func:`check_record`, the canonical rule) when that raw check does
  not pass: a foreign writer's spacing or key order, a pre-CRC record
  and real bit rot are all judged exactly as before.

``repro store verify`` walks a store with these helpers and reports
intact / corrupt / unchecksummed counts; ``repro store repair``
re-derives a clean store from the intact records.
"""

from __future__ import annotations

import json
import zlib

__all__ = [
    "CRC_SCHEMA",
    "seal_record",
    "check_record",
    "strip_seal",
    "seal_text",
    "open_sealed",
]

#: Current seal schema version (the ``N`` in ``"N:<hex>"``).
CRC_SCHEMA: int = 1

#: How a line sealed by this library ends: ``<_SEAL_HEAD><8 hex>"}``.
_SEAL_HEAD = f', "crc": "{CRC_SCHEMA}:'
_SEAL_LEN = len(_SEAL_HEAD) + 8 + 2


def _crc_of(record: dict) -> str:
    return f"{zlib.crc32(json.dumps(record).encode()) & 0xFFFFFFFF:08x}"


def seal_record(record: dict) -> dict:
    """A copy of ``record`` carrying its own CRC32 as a final ``crc``
    key (an existing seal is recomputed, so re-appending a loaded
    record never double-seals)."""
    body = {k: v for k, v in record.items() if k != "crc"}
    sealed = dict(body)
    sealed["crc"] = f"{CRC_SCHEMA}:{_crc_of(body)}"
    return sealed


def check_record(record: dict) -> "tuple[dict, bool | None]":
    """Verify and strip a record's seal.

    Returns ``(record_without_crc, verdict)`` where the verdict is
    ``True`` (seal present and matches), ``False`` (seal present and
    the body does not hash to it — bit rot), or ``None`` (no seal, or
    a seal schema this reader does not know).
    """
    seal = record.get("crc")
    if not isinstance(seal, str):
        return record, None
    body = {k: v for k, v in record.items() if k != "crc"}
    version, sep, digest = seal.partition(":")
    if not sep or version != str(CRC_SCHEMA):
        return body, None
    return body, _crc_of(body) == digest


def strip_seal(record: dict) -> dict:
    """The record without its ``crc`` key (no verification)."""
    if "crc" not in record:
        return record
    return {k: v for k, v in record.items() if k != "crc"}


def seal_text(record: dict) -> str:
    """The sealed JSON text of ``record`` — byte for byte
    ``json.dumps(seal_record(record))`` — from a single serialization:
    the seal is spliced in as the final key of the body text it
    checksums."""
    body = json.dumps(strip_seal(record))
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    head = _SEAL_HEAD if len(body) > 2 else _SEAL_HEAD[2:]  # "{}" has no comma
    return f'{body[:-1]}{head}{crc:08x}"}}'


def open_sealed(text: str) -> "tuple[object, bool | None]":
    """Parse one stored record text (no trailing newline) and judge its
    seal: ``check_record(json.loads(text))`` without re-serializing
    what was just parsed.

    A text that ends the way :func:`seal_text` ends one is verified on
    the bytes read — its CRC is that of the text minus the spliced
    seal.  Whenever that does not pass (other spacing or key order, no
    seal, unknown schema, damage) the canonical :func:`check_record`
    decides, so the raw check can confirm a record but never reject
    one.  (The one text it confirms that the canonical rule would not:
    a foreign line sealed, in this exact layout, over its own
    non-canonical bytes — intact by the only measure a seal has.)
    Malformed JSON raises ``ValueError``; a non-dict value comes back
    unjudged for the caller to refuse.
    """
    record = json.loads(text)
    if not isinstance(record, dict):
        return record, None
    cut = len(text) - _SEAL_LEN
    if text.startswith(_SEAL_HEAD, cut) and text.endswith('"}'):
        crc = zlib.crc32((text[:cut] + "}").encode()) & 0xFFFFFFFF
        if f"{crc:08x}" == text[cut + len(_SEAL_HEAD):-2]:
            del record["crc"]
            return record, True
    return check_record(record)
