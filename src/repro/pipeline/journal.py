"""Write-ahead closure journal: crash-safe, resumable timing closure.

A multi-hour :func:`repro.pipeline.closure.run_closure` run that dies at
iteration 40 should not restart from zero.  The journal makes the loop
durable: after each completed iteration the full loop state — exact
per-sink delays, accepted trees, buffer areas, degraded set, attempted
required-time vectors, the previous critical delay — plus the iteration
report is appended to an append-only JSONL file.  ``merlin-repro
closure --resume <journal>`` then replays the completed iterations
bit-identically (the state is *restored*, not recomputed) and continues
from the crash point.

Durability contract:

* every record carries a SHA-256 checksum over its canonical JSON body
  (sorted keys, no whitespace, checksum field excluded);
* appends are atomic at the line level: one ``write`` of the full line,
  then ``flush`` + ``os.fsync`` before the append returns, so a crash
  can tear at most the final line;
* the reader tolerates exactly that: a torn or checksum-failing *final*
  line is discarded (and counted); corruption anywhere earlier raises
  :class:`~repro.resilience.errors.JournalCorruptError`, because silent
  state loss in the middle of a journal is never safe to resume over;
* resuming truncates the file back to the last valid record boundary
  before appending, so a torn tail cannot shadow later records.

The header pins the run identity (circuit fingerprint, closure config,
ordering policy, timing target); ``--resume`` refuses a journal written
for a different design or configuration rather than silently producing
a franken-run.

Chaos seams: ``pipeline.journal.append`` and ``pipeline.journal.read``
are registered fault sites, so the chaos suite can tear records and
corrupt reads deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.instrument import names as metric
from repro.instrument.recorder import NULL_RECORDER, Recorder
from repro.resilience.errors import JournalCorruptError, MerlinInputError
from repro.resilience.faults import fault_point

__all__ = [
    "JOURNAL_VERSION",
    "ClosureJournal",
    "JournalReplay",
    "read_journal",
]

JOURNAL_VERSION = 1

RECORD_HEADER = "header"
RECORD_ITERATION = "iteration"


def _canonical(record: Dict[str, Any]) -> str:
    body = {k: v for k, v in record.items() if k != "checksum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _checksum(record: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


def _sealed(record: Dict[str, Any]) -> str:
    """The full journal line (checksummed, newline-terminated)."""
    record = dict(record)
    record["checksum"] = _checksum(record)
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")) + "\n"


@dataclass
class JournalReplay:
    """What :func:`read_journal` recovered from a journal file."""

    header: Dict[str, Any]
    #: Completed-iteration records, in index order.
    records: List[Dict[str, Any]]
    #: 1 when a torn/corrupt final line was discarded, else 0.
    torn: int
    #: Byte offset just past the last valid record (truncation point).
    valid_bytes: int

    @property
    def last_index(self) -> int:
        """Index of the last journaled iteration (-1 when none)."""
        return self.records[-1]["index"] if self.records else -1

    @property
    def stopped(self) -> bool:
        """True when the journaled run reached a terminal iteration."""
        return bool(self.records) and bool(self.records[-1].get("stop"))


def read_journal(path: str, recorder: Optional[Recorder] = None
                 ) -> JournalReplay:
    """Parse and verify a journal; see the module docstring for the
    torn-tail vs mid-file corruption contract."""
    rec = recorder or NULL_RECORDER
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise MerlinInputError(
            f"cannot read closure journal {path!r}: {exc}") from exc

    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    torn = 0
    valid_bytes = 0
    offset = 0
    lines = blob.split(b"\n")
    for number, raw in enumerate(lines):
        # Everything before the final element is a newline-terminated
        # line; the final element is either b"" (clean tail) or a torn
        # write that never got its newline.
        terminated = number < len(lines) - 1
        line_bytes = raw + (b"\n" if terminated else b"")
        if not raw:
            offset += len(line_bytes)
            continue
        is_last = not any(lines[number + 1:])
        record = _verify_line(path, raw, number, is_last and torn == 0)
        if record is None:
            torn += 1
            rec.incr(metric.PIPELINE_JOURNAL_TORN)
            break
        if header is None:
            if record.get("type") != RECORD_HEADER:
                raise JournalCorruptError(
                    f"journal {path!r} does not start with a header "
                    f"record (line {number + 1} is "
                    f"{record.get('type')!r})")
            if record.get("version") != JOURNAL_VERSION:
                raise MerlinInputError(
                    f"journal {path!r} has version "
                    f"{record.get('version')!r}; this build reads "
                    f"version {JOURNAL_VERSION}")
            header = record
        else:
            if record.get("type") != RECORD_ITERATION:
                raise JournalCorruptError(
                    f"journal {path!r} line {number + 1} has unexpected "
                    f"record type {record.get('type')!r}")
            expected = records[-1]["index"] + 1 if records else 0
            if record.get("index") != expected:
                raise JournalCorruptError(
                    f"journal {path!r} line {number + 1} is iteration "
                    f"{record.get('index')!r}, expected {expected} — "
                    f"records are missing or reordered")
            records.append(record)
        offset += len(line_bytes)
        valid_bytes = offset
    if header is None:
        raise MerlinInputError(
            f"journal {path!r} holds no valid header record"
            + (" (file is empty or fully torn)" if torn else ""))
    return JournalReplay(header=header, records=records, torn=torn,
                         valid_bytes=valid_bytes)


def _verify_line(path: str, raw: bytes, number: int, tolerate: bool
                 ) -> Optional[Dict[str, Any]]:
    """Decode + checksum one line; None = discarded torn tail."""
    raw = fault_point("pipeline.journal.read", raw, key=str(number))
    try:
        record = json.loads(raw.decode("utf-8"))
        if not isinstance(record, dict):
            raise ValueError("record is not an object")
        stamp = record.get("checksum")
        if stamp != _checksum(record):
            raise ValueError("checksum mismatch")
    except (ValueError, UnicodeDecodeError) as exc:
        if tolerate:
            return None
        raise JournalCorruptError(
            f"journal {path!r} line {number + 1} is corrupt ({exc}); "
            f"mid-file corruption cannot be resumed over") from exc
    return record


class ClosureJournal:
    """Appender for one closure run's journal (crash-safe writes).

    ``ClosureJournal.create`` starts a fresh journal (truncating any
    stale file at that path); ``ClosureJournal.resume`` re-opens an
    existing one after :func:`read_journal`, truncated back to its last
    valid record so new appends extend clean state.
    """

    def __init__(self, path: str, handle: Any) -> None:
        self.path = path
        self._handle = handle

    @classmethod
    def create(cls, path: str, header: Dict[str, Any]) -> "ClosureJournal":
        journal = cls(path, open(path, "wb"))
        record = dict(header)
        record["type"] = RECORD_HEADER
        record["version"] = JOURNAL_VERSION
        journal._append(record, key="header")
        return journal

    @classmethod
    def resume(cls, path: str, replay: JournalReplay) -> "ClosureJournal":
        handle = open(path, "r+b")
        handle.truncate(replay.valid_bytes)
        handle.seek(replay.valid_bytes)
        return cls(path, handle)

    def append_iteration(self, index: int, state: Dict[str, Any],
                         report: Dict[str, Any], stop: bool) -> None:
        """Seal one completed iteration (state snapshot + report)."""
        self._append({
            "type": RECORD_ITERATION,
            "index": index,
            "state": state,
            "report": report,
            "stop": bool(stop),
        }, key=str(index))

    def _append(self, record: Dict[str, Any], key: str) -> None:
        line = _sealed(record).encode("utf-8")
        line = fault_point("pipeline.journal.append", line, key=key)
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ClosureJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
