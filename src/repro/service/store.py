"""JSONL-backed result store: completed jobs, persisted and TTL-evicted.

Every job the service completes appends one self-contained JSON line:
the canonical spec, the ``RunManifest``-derived execution record (source,
in-worker seconds, retries, seed — the same fields
``repro.obs.manifest.PairRecord`` tracks for sweeps), and the serialized
``SimResult``. Append-only JSONL keeps the write path a single
``write()+flush()`` — crash-safe in the sense that a torn final line is
simply skipped on reload — while still being greppable and ``jq``-able.

Reads are served from an in-memory index: every job id to its own record,
and every spec cache key to its newest record. A store hit is a new job
whose record copies the result under its own id, so each id the store has
acknowledged keeps resolving to itself — after a restart, after
``compact()`` and until its TTL — while dedup reads the newest record per
key. On disk a record whose spec, pair and result equal those of the
previous line for its cache key is written without them (about a quarter
of the full line's size), and ``load()`` fills them back in from that line,
expired or not; in memory such records share those objects. ``load()``
rebuilds the index on startup, dropping expired records.
TTL eviction is lazy (checked on access) plus explicit (``evict_expired``,
called by the server's housekeeping and before ``compact()`` rewrites the
file without the dead weight).

The store never *blocks* the event loop meaningfully: records are small
(one simulation summary, not a trace), and compaction is an atomic
write-then-rename in the same directory, the repo-wide durability idiom
(see ``repro.trace.artifact``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

__all__ = ["STORE_VERSION", "ResultStore"]

#: Record schema version; bumping it orphans records written by older
#: servers (they are skipped on load, never misparsed).
STORE_VERSION = 1

#: Fields every record of one cache key has in common. A line without
#: ``result`` takes all three from the previous line of its key.
_SHARED = ("spec", "pair", "result")


class ResultStore:
    """Persistent map of completed jobs, keyed by job id and spec cache key.

    ``path=None`` gives a purely in-memory store (tests, ephemeral servers).
    ``ttl`` is seconds a record stays servable after its ``finished_at``;
    ``None`` disables eviction.
    """

    def __init__(self, path: str | Path | None, ttl: float | None = None) -> None:
        self.path = Path(path) if path else None
        self.ttl = ttl
        #: cache key -> record (newest wins).
        self._by_key: dict[str, dict[str, Any]] = {}
        #: job id -> its record, in insertion order (the order compaction
        #: writes, so the newest record per key still wins on reload).
        self._by_id: dict[str, dict[str, Any]] = {}
        self.evicted = 0
        self.skipped_lines = 0  # torn/foreign lines ignored during load

    # -- record shape ----------------------------------------------------

    @staticmethod
    def make_record(job: Any, pair_record: dict[str, Any] | None = None) -> dict[str, Any]:
        """Build the stored record for a finished ``protocol.Job``.

        ``pair_record`` is the matching ``PairRecord`` dict from the sweep
        manifest when the job was actually simulated (it carries the
        in-worker seconds and retry count the service's own clock cannot
        see); cache-served jobs store a synthesized one.
        """
        return {
            "version": STORE_VERSION,
            "id": job.id,
            "key": job.key,
            "spec": job.spec.to_dict(),
            "state": job.state,
            "source": job.source,
            "submitted_at": job.submitted_at,
            "finished_at": job.finished_at,
            "latency": job.latency,
            "retries": job.retries,
            "coalesced": job.coalesced,
            "worker": job.worker,
            "redelivered": job.redelivered,
            "pair": pair_record,
            "result": job.result,
        }

    # -- persistence -----------------------------------------------------

    def load(self) -> int:
        """Rebuild the index from the JSONL file; returns live record count.

        Unparsable lines (torn final write, foreign content), records from
        other schema versions, records without an id or key, and short
        lines with no earlier line for their key are counted in
        ``skipped_lines`` and ignored; expired records are dropped.
        Newest record per cache key wins, so a key re-executed after TTL
        expiry resolves to the rerun.
        """
        self._by_key.clear()
        self._by_id.clear()
        if self.path is None or not self.path.exists():
            return 0
        now = time.time()
        last: dict[str, dict[str, Any]] = {}  # key -> previous line, expired too
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    continue
                if (
                    not isinstance(rec, dict)
                    or rec.get("version") != STORE_VERSION
                    or not rec.get("id")
                    or not rec.get("key")
                ):
                    self.skipped_lines += 1
                    continue
                if "result" not in rec:
                    prev = last.get(rec["key"])
                    if prev is None:
                        self.skipped_lines += 1
                        continue
                    rec.update((f, prev.get(f)) for f in _SHARED)
                last[rec["key"]] = rec
                if self._expired(rec, now):
                    self.evicted += 1
                    continue
                self._insert(rec)
        return len(self._by_key)

    def add(self, record: dict[str, Any]) -> None:
        """Index a record and append it to the JSONL file (flushed)."""
        line = self._line(record, self._by_key.get(record["key"]))
        self._insert(record)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())

    def compact(self) -> int:
        """Rewrite the file with one line per live job id; returns how many.

        Atomic write-then-rename, so a reader (or a crash) mid-compaction
        observes either the old file or the new one, never a torn hybrid.
        """
        self.evict_expired()
        if self.path is None:
            return len(self._by_id)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp-{os.getpid()}")
        last: dict[str, dict[str, Any]] = {}
        with tmp.open("w", encoding="utf-8") as fh:
            for rec in self._by_id.values():
                fh.write(self._line(rec, last.get(rec["key"])))
                last[rec["key"]] = rec
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        return len(self._by_id)

    # -- lookup ----------------------------------------------------------

    def get_by_id(self, job_id: str) -> dict[str, Any] | None:
        """The record of one job id, or None if unknown or TTL-expired."""
        return self._live(self._by_id.get(job_id))

    def get_by_key(self, key: str) -> dict[str, Any] | None:
        """Newest record for a spec cache key, lazily evicting if expired."""
        return self._live(self._by_key.get(key))

    def evict_expired(self) -> int:
        """Drop every expired record now; returns how many went."""
        now = time.time()
        dead = [rec for rec in self._by_id.values() if self._expired(rec, now)]
        for rec in dead:
            self._drop(rec)
        return len(dead)

    def __len__(self) -> int:
        """Distinct spec cache keys with a live result."""
        return len(self._by_key)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(list(self._by_key.values()))

    # -- internals -------------------------------------------------------

    def _expired(self, rec: dict[str, Any], now: float) -> bool:
        if self.ttl is None:
            return False
        finished = rec.get("finished_at")
        return finished is not None and now - float(finished) > self.ttl

    @staticmethod
    def _line(rec: dict[str, Any], prev: dict[str, Any] | None) -> str:
        """The JSONL line for ``rec``, short when ``prev`` (the record
        before it in the file for the same key) has the same shared fields."""
        if prev is not None and all(rec.get(f) == prev.get(f) for f in _SHARED):
            rec = {k: v for k, v in rec.items() if k not in _SHARED}
        return json.dumps(rec, sort_keys=True) + "\n"

    def _live(self, rec: dict[str, Any] | None) -> dict[str, Any] | None:
        if rec is not None and self._expired(rec, time.time()):
            self._drop(rec)
            return None
        return rec

    def _insert(self, rec: dict[str, Any]) -> None:
        self._by_id.pop(rec["id"], None)  # a re-added id moves to the end
        self._by_id[rec["id"]] = rec
        self._by_key[rec["key"]] = rec

    def _drop(self, rec: dict[str, Any]) -> None:
        if self._by_key.get(rec["key"]) is rec:
            del self._by_key[rec["key"]]
        if self._by_id.get(rec["id"]) is rec:
            del self._by_id[rec["id"]]
        self.evicted += 1
