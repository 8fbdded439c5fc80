"""Persistent binary trace artifacts: the sweep engine's disk layer.

Generating a synthetic trace is a pure function of
``(profile, length, base, seed, instance)`` — but an expensive one: the
dynamic CFG walk emits one record at a time through several PRNG draws per
instruction. A full paper sweep replays the *same* traces dozens of times
(six policies over one workload share every thread trace bit-for-bit, and
every worker process regenerates them from scratch), so this module persists
generated traces as compact binary artifacts that load in a fraction of the
generation cost.

Format (version 1, little-endian, one file per trace)::

    magic   4s   b"DWTR"
    version u16
    namelen u16  length of the profile-name bytes
    length  u64  record count
    base    i64  per-thread address-space base
    seed    i64  master simulation seed
    instance u32 duplicate-benchmark instance number
    crc     u32  CRC-32 of the payload bytes
    paylen  u64  payload byte count
    name    <namelen>s  profile name (UTF-8)
    payload      9 parallel arrays, in record-field order:
                 pc[q] op[b] dest[b] src1[b] src2[b] addr[q]
                 brkind[b] taken[b] target[q]

Struct-packed parallel arrays (``array`` module) keep the file ~30 bytes per
record instead of JSON's hundreds, and load back via ``frombytes`` without a
per-record Python loop. The ``CodeLayout`` and ``AddressSpace`` are *not*
serialized: both are cheap deterministic functions of the key, so the loader
rebuilds them and only the walk — the expensive part — is skipped.

Durability rules:

- **Atomic writes.** Artifacts are written to a same-directory temp file and
  published with ``os.replace``, so concurrent workers racing on one path
  never expose a torn file; the last complete write wins and every
  intermediate observation is either the old file, the new file, or nothing.
- **Fail-open reads.** Any mismatch — magic, version, key fields, payload
  length, CRC — makes :meth:`TraceArtifactCache.load` return ``None``; the
  caller regenerates and rewrites. A corrupt cache can cost time, never
  correctness.

The cache key folds ``repr(profile)`` into the filename hash, so recalibrated
profiles can never resolve to stale artifacts (same rationale as the result
cache's ``CACHE_VERSION`` filenames).

The CLI resolves the cache *directory* with a fixed precedence —
``--trace-cache`` flag, then the ``DWARN_SIM_TRACE_CACHE`` environment
variable, then the ``.cache/traces`` default
(``repro.cli.resolve_trace_cache_dir``) — and ``dwarn-sim cache stats``
reports which of the three supplied the directory it inspected.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterator

from repro.trace.profiles import BenchmarkProfile
from repro.trace.synthetic import SyntheticTrace, set_trace_artifact_cache
from repro.utils.rng import stable_hash64

__all__ = [
    "ARTIFACT_VERSION",
    "TraceArtifactCache",
    "schema_info",
    "trace_cache_installed",
]

#: Bump whenever the artifact byte format or the trace *generator* changes in
#: a way that alters the arrays (the filename hash folds this in, so stale
#: artifacts from older formats are simply never found).
ARTIFACT_VERSION = 1

_MAGIC = b"DWTR"
_HEADER = struct.Struct("<4sHHQqqIIQ")
#: (typecode, field) pairs in DynInstr record order.
_FIELDS: tuple[tuple[str, str], ...] = (
    ("q", "pc"),
    ("b", "op"),
    ("b", "dest"),
    ("b", "src1"),
    ("b", "src2"),
    ("q", "addr"),
    ("b", "brkind"),
    ("b", "taken"),
    ("q", "target"),
)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def schema_info() -> dict[str, object]:
    """Machine-readable description of the on-disk artifact format.

    ``dwarn-sim version`` and the service's ``/healthz`` report this so the
    schema a deployment writes is discoverable without reading source; the
    fields are the ones a reader needs to recognize (or rule out) a file.
    """
    return {
        "version": ARTIFACT_VERSION,
        "magic": _MAGIC.decode("ascii"),
        "suffix": ".dwtrace",
        "header_bytes": _HEADER.size,
        "record_bytes": sum(8 if t == "q" else 1 for t, _ in _FIELDS),
        "fields": [f for _, f in _FIELDS],
    }


def _encode(trace: SyntheticTrace) -> bytes:
    """Serialize a trace to the version-1 artifact byte string."""
    parts: list[bytes] = []
    for typecode, field in _FIELDS:
        arr = array(typecode, getattr(trace, field))
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            arr.byteswap()
        parts.append(arr.tobytes())
    payload = b"".join(parts)
    name = trace.profile.name.encode("utf-8")
    header = _HEADER.pack(
        _MAGIC,
        ARTIFACT_VERSION,
        len(name),
        trace.length,
        trace.base,
        trace.seed,
        trace.instance,
        zlib.crc32(payload),
        len(payload),
    )
    return header + name + payload


def _decode(
    data: bytes,
    profile: BenchmarkProfile,
    length: int,
    base: int,
    seed: int,
    instance: int,
) -> SyntheticTrace | None:
    """Parse artifact bytes back into a trace; ``None`` on any mismatch."""
    if len(data) < _HEADER.size:
        return None
    magic, version, namelen, f_length, f_base, f_seed, f_instance, crc, paylen = (
        _HEADER.unpack_from(data)
    )
    if magic != _MAGIC or version != ARTIFACT_VERSION:
        return None
    if (f_length, f_base, f_seed, f_instance) != (length, base, seed, instance):
        return None
    name_end = _HEADER.size + namelen
    if data[_HEADER.size:name_end].decode("utf-8", "replace") != profile.name:
        return None
    payload = data[name_end:]
    expected = length * sum(8 if t == "q" else 1 for t, _ in _FIELDS)
    if len(payload) != paylen or paylen != expected:
        return None  # truncated or padded file
    if zlib.crc32(payload) != crc:
        return None  # bit rot / torn legacy write
    arrays: dict[str, list[int]] = {}
    offset = 0
    for typecode, field in _FIELDS:
        nbytes = length * (8 if typecode == "q" else 1)
        arr = array(typecode)
        arr.frombytes(payload[offset : offset + nbytes])
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            arr.byteswap()
        arrays[field] = arr.tolist()
        offset += nbytes
    return SyntheticTrace.from_arrays(profile, length, base, seed, instance, arrays)


class TraceArtifactCache:
    """Directory of persisted trace artifacts, with hit/miss accounting.

    One instance fronts one directory (conventionally ``.cache/traces``).
    ``load``/``store`` are safe under concurrent multi-process use: loads
    fail open on any inconsistency and stores are atomic write-then-rename.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.disk_hits = 0
        self.disk_misses = 0
        self.stores = 0
        self.rejected = 0  # corrupt / mismatching files encountered

    # -- keying --------------------------------------------------------

    def path_for(
        self,
        profile: BenchmarkProfile,
        length: int,
        base: int,
        seed: int,
        instance: int,
    ) -> Path:
        """Artifact path for one trace key.

        The filename hash covers the full profile ``repr`` plus the format
        version, so a recalibrated profile or a format bump can never
        resolve to a stale artifact; the readable prefix makes the cache
        directory inspectable (``dwarn-sim cache stats``).
        """
        h = stable_hash64(
            ARTIFACT_VERSION, profile.name, repr(profile), length, base, seed, instance
        )
        return self.directory / (
            f"{profile.name}-l{length}-i{instance}-{h:016x}.dwtrace"
        )

    # -- load / store --------------------------------------------------

    def load(
        self,
        profile: BenchmarkProfile,
        length: int,
        base: int,
        seed: int,
        instance: int,
    ) -> SyntheticTrace | None:
        """Load one trace from disk; ``None`` (never an exception) on a
        missing, corrupt, truncated, or key-mismatching artifact."""
        if not (_I64_MIN <= base <= _I64_MAX and _I64_MIN <= seed <= _I64_MAX):
            return None  # unserializable key: fall through to generation
        path = self.path_for(profile, length, base, seed, instance)
        try:
            data = path.read_bytes()
        except OSError:
            self.disk_misses += 1
            return None
        trace = _decode(data, profile, length, base, seed, instance)
        if trace is None:
            # Corrupt or stale-beyond-recognition: drop it so the follow-up
            # store rewrites a clean file.
            self.rejected += 1
            self.disk_misses += 1
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        self.disk_hits += 1
        return trace

    def store(self, trace: SyntheticTrace) -> Path | None:
        """Persist one trace atomically; returns the artifact path.

        The artifact is written to a per-process temp name in the same
        directory and published with ``os.replace``, so a reader racing a
        writer (or two writers racing each other) always observes a
        complete file. Returns ``None`` if the key cannot be serialized.
        """
        if not (
            _I64_MIN <= trace.base <= _I64_MAX and _I64_MIN <= trace.seed <= _I64_MAX
        ):
            return None
        path = self.path_for(
            trace.profile, trace.length, trace.base, trace.seed, trace.instance
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        tmp.write_bytes(_encode(trace))
        os.replace(tmp, path)
        self.stores += 1
        return path

    # -- maintenance / introspection -----------------------------------

    def _artifact_files(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.dwtrace"))

    def stats(self) -> dict[str, object]:
        """On-disk footprint plus this process's hit/miss counters."""
        files = self._artifact_files()
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "total_bytes": sum(f.stat().st_size for f in files),
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "stores": self.stores,
            "rejected": self.rejected,
        }

    def clear(self) -> int:
        """Delete every artifact (and stray temp file); returns the count
        of artifacts removed."""
        removed = 0
        for f in self._artifact_files():
            with contextlib.suppress(OSError):
                f.unlink()
                removed += 1
        if self.directory.is_dir():
            for tmp in self.directory.glob("*.dwtrace.tmp-*"):
                with contextlib.suppress(OSError):
                    tmp.unlink()
        return removed


@contextlib.contextmanager
def trace_cache_installed(cache: TraceArtifactCache | None) -> Iterator[None]:
    """Scope during which ``generate_trace`` consults ``cache``'s disk layer.

    ``None`` is a no-op scope (whatever cache is already installed stays),
    so call sites can plumb an optional cache without branching.
    """
    if cache is None:
        yield
        return
    prev = set_trace_artifact_cache(cache)
    try:
        yield
    finally:
        set_trace_artifact_cache(prev)
