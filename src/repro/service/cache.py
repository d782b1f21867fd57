"""The canonical-net result cache: in-memory LRU plus optional disk tier.

Values are the picklable/JSON-able result payloads produced by the batch
engine (:mod:`repro.service.engine`): the tree exported in
source-relative coordinates, the evaluation, and the scalar outcome.
Keys are :func:`repro.service.canonical.canonical_key` digests, so a hit
means "the engine is guaranteed to produce this exact answer" and the
DP is skipped entirely.

The memory tier is a plain ``OrderedDict`` LRU guarded by one lock — the
HTTP front end serves from many threads.  The optional disk tier writes
one ``<key>.json`` file per entry under ``disk_dir`` and never evicts;
memory misses fall through to disk and promote back on hit, so a
restarted service warms itself from its own history.  Disk writes are
atomic (temp file + rename) so a killed process can't leave a torn
entry behind.

Disk entries are hardened (schema version 2):

* every entry carries a SHA-256 **checksum** of its payload, so a torn,
  truncated, or bit-rotted file is *detected*, not replayed;
* a corrupt entry is **quarantined** — moved into ``disk_dir/quarantine/``
  for post-mortems instead of deleted — and the read degrades to a
  clean miss (the engine recomputes and overwrites);
* a **schema-version** mismatch (an old cache) is a plain miss, not a
  corruption: old caches age out instead of crashing or raising alarms;
* corruption and quarantine counts surface in :meth:`stats` (and so in
  ``GET /stats``) and in the ``resilience.cache.*`` metrics when a
  recorder is attached.

Chaos hooks: reads and writes pass through the
``service.cache.read`` / ``service.cache.write`` fault points, so the
chaos suite can inject torn entries without touching the filesystem.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.instrument import names as metric
from repro.instrument.recorder import Recorder
from repro.resilience.errors import MerlinInputError
from repro.resilience.faults import fault_point

#: Payload schema version stored in every disk entry; mismatches are
#: treated as misses so old caches age out instead of crashing.
#: Version 2 added the payload checksum.
PAYLOAD_VERSION = 2

#: Subdirectory of ``disk_dir`` corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload: Dict[str, Any]) -> str:
    """Canonical SHA-256 digest of a payload (sorted-key JSON)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """LRU result cache with an optional persistent JSON tier."""

    def __init__(self, capacity: int = 256,
                 disk_dir: Optional[str] = None,
                 recorder: Optional[Recorder] = None) -> None:
        if capacity < 1:
            raise MerlinInputError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        #: Optional metrics sink for the ``resilience.cache.*`` counters;
        #: the owning service attaches its own recorder here.
        self.recorder = recorder
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._evictions = 0
        self._corruptions = 0
        self._quarantined = 0
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the payload stored under ``key`` or None on a miss.

        Payloads are deep-copied on the way out so callers can mutate
        their copy without corrupting the cache (and so a memory hit and
        a disk hit are indistinguishable to the caller).
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return copy.deepcopy(payload)
        payload = self._read_disk(key)
        with self._lock:
            if payload is not None:
                self._hits += 1
                self._disk_hits += 1
                self._store(key, payload)
                return copy.deepcopy(payload)
            self._misses += 1
            return None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (memory, then disk when on)."""
        payload = copy.deepcopy(payload)
        with self._lock:
            self._store(key, payload)
        self._write_disk(key, payload)

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._entries.clear()

    def flush(self) -> int:
        """Write every memory-tier entry missing on disk to the disk tier.

        The drain path calls this before shutdown so answers computed
        since the last disk write survive the restart.  Returns the
        number of entries written (0 without a disk tier — the memory
        tier alone cannot outlive the process anyway).
        """
        if self.disk_dir is None:
            return 0
        with self._lock:
            entries = [(key, copy.deepcopy(payload))
                       for key, payload in self._entries.items()]
        flushed = 0
        for key, payload in entries:
            if os.path.exists(self._disk_path(key)):
                continue
            self._write_disk(key, payload)
            flushed += 1
        if flushed:
            with self._lock:
                recorder = self.recorder
            if recorder is not None:
                recorder.incr(metric.RESILIENCE_CACHE_FLUSHED, flushed)
        return flushed

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for ``GET /stats`` and the bench harness."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "disk_hits": self._disk_hits,
                "evictions": self._evictions,
                "corruptions": self._corruptions,
                "quarantined": self._quarantined,
                "disk_dir": self.disk_dir,
            }

    # -- internals (callers hold self._lock where noted) ----------------

    def _store(self, key: str, payload: Dict[str, Any]) -> None:
        """Insert under LRU discipline; caller holds the lock."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = payload
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def _disk_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        if self.disk_dir is None:
            return None
        try:
            with open(self._disk_path(key), "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            return None
        raw = fault_point("service.cache.read", data=raw, key=key)
        try:
            entry = json.loads(raw)
        except ValueError:
            return self._quarantine(key, "entry is not valid JSON")
        if not isinstance(entry, dict):
            return self._quarantine(key, "entry is not a JSON object")
        if entry.get("version") != PAYLOAD_VERSION:
            # A different schema is an *old* cache, not a broken one:
            # miss cleanly and let the next put overwrite it.
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return self._quarantine(key, "entry has no payload object")
        if entry.get("checksum") != payload_checksum(payload):
            return self._quarantine(key, "payload checksum mismatch")
        return payload

    def _quarantine(self, key: str, why: str) -> None:
        """Move a corrupt entry aside and account for it; returns None
        so corrupt reads look like plain misses to the caller."""
        moved = False
        try:
            quarantine_dir = os.path.join(self.disk_dir, QUARANTINE_DIR)
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(self._disk_path(key),
                       os.path.join(quarantine_dir, f"{key}.json"))
            moved = True
        except OSError:
            # Quarantine is best-effort; the entry stays (and stays
            # detected) if the move fails on a read-only disk.
            pass
        with self._lock:
            self._corruptions += 1
            if moved:
                self._quarantined += 1
            recorder = self.recorder
            if recorder is not None:
                recorder.incr(metric.RESILIENCE_CACHE_CORRUPTIONS)
                if moved:
                    recorder.incr(metric.RESILIENCE_CACHE_QUARANTINED)
        return None

    def _write_disk(self, key: str, payload: Dict[str, Any]) -> None:
        if self.disk_dir is None:
            return
        blob = json.dumps({
            "version": PAYLOAD_VERSION,
            "checksum": payload_checksum(payload),
            "payload": payload,
        })
        blob = fault_point("service.cache.write", data=blob, key=key)
        tmp = None
        try:
            # One temp file per call: shards of one server share the pid
            # and the disk tier, so a pid-named temp file would let two
            # writers of the same key interleave into a torn entry.
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp, self._disk_path(key))
        except OSError:
            # Disk tier is best-effort: a full/read-only disk degrades the
            # cache to memory-only rather than failing the request.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
