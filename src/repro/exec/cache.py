"""Sharded content-addressed on-disk result store (``.repro-cache/``).

Layout: one directory per *source fingerprint generation* (first 16 hex
chars of :func:`~repro.exec.fingerprint.source_fingerprint`), and inside
it :data:`DEFAULT_SHARDS` ``shard-XXX`` directories addressed by the
task-key prefix.  One file per result, named by the full task key — the
spec's content hash.  A key never changes meaning: same code + same spec
⇒ same file, same shard.  The fan-out is a constant: the fingerprint
covers this module, so every reader and writer of one generation runs
the same code and agrees on where every key lives, and a probe is one
``open()`` of the entry's path.  Sharding keeps any one directory small
enough to be cheap on network filesystems (a million-entry campaign is
~60k files per shard) and lets independent workers publish concurrently
without contending on a single directory's metadata.

Entry format (self-verifying, unchanged from the unsharded store)::

    repro-cache-v1\\n
    <sha256 hex of payload>\\n
    <pickled payload>

Reads verify the magic line and the payload digest before unpickling;
*any* deviation — truncation, bit rot, a partially written file, an
unpicklable payload — classifies as a miss, best-effort deletes the bad
file, and the coordinator simply re-runs the task.  Corruption can cost
time, never correctness, and never crashes a sweep.  Writes go through a
same-directory temp file + :func:`os.replace`, so a crashed writer
leaves either the old entry or a (detectable) partial temp file, never a
half-new entry under the real name.  A write that fails (full disk,
read-only or deleted store) leaves the entry uncached: :meth:`ResultCache.put`
returns ``False`` and the sweep goes on with its in-memory result.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import DCudaUsageError
from .fingerprint import source_fingerprint
from .spec import RunSpec

__all__ = ["ResultCache", "CacheStats", "ShardStats", "DEFAULT_CACHE_DIR",
           "DEFAULT_SHARDS"]

#: Default cache location, relative to the invoking working directory
#: (the repo root in every documented workflow).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Shard fan-out of every generation: ``shard-000`` … ``shard-015``.
#: Small enough that an ``ls`` of a fresh cache is still readable.
DEFAULT_SHARDS = 16

_MAGIC = b"repro-cache-v1"


@dataclass(frozen=True)
class ShardStats:
    """Census of one shard directory within the current generation."""

    name: str
    entries: int
    bytes: int


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time census of a cache directory."""

    root: str
    fingerprint: str
    #: Entries/bytes under the *current* source fingerprint.
    entries: int
    bytes: int
    #: Entries/bytes under stale fingerprints (reclaimable by ``gc``).
    stale_entries: int
    stale_bytes: int
    #: Number of fingerprint generations present on disk.
    generations: int
    #: Shard fan-out of the current generation (0 = generation absent).
    shards: int = 0
    #: Per-shard census of the current generation.
    shard_breakdown: Tuple[ShardStats, ...] = field(default=())


class ResultCache:
    """Sharded content-addressed result store for the sweep service.

    Args:
        root: Cache directory (created lazily on first write).
        fingerprint: Source-tree fingerprint to namespace entries under;
            defaults to the live fingerprint of the installed ``repro``
            package.  Tests inject explicit values to model code changes.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR,
                 fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or source_fingerprint()
        if not self.fingerprint:
            raise DCudaUsageError("empty cache fingerprint")
        self._gen = os.path.join(self.root, self.fingerprint[:16])
        self._shard_dirs = [os.path.join(self._gen, f"shard-{i:03d}", "")
                            for i in range(DEFAULT_SHARDS)]

    # ---------------------------------------------------------- keys -----
    def key_for(self, spec: RunSpec) -> str:
        """Task key: the spec's content hash."""
        return spec.content_hash()

    def _generation_dir(self) -> Path:
        return Path(self._gen)

    def _entry_path(self, key: str) -> str:
        """Where *key* — a hex content hash — lives: the shard its
        prefix picks."""
        return (self._shard_dirs[int(key[:2], 16) % DEFAULT_SHARDS]
                + key + ".pkl")

    # ----------------------------------------------------------- I/O -----
    @staticmethod
    def _verify(blob: bytes) -> Any:
        """Decode one self-verifying entry; raises on any deviation."""
        magic, digest, payload = blob.split(b"\n", 2)
        if magic != _MAGIC:
            raise ValueError("bad magic")
        if hashlib.sha256(payload).hexdigest().encode() != digest:
            raise ValueError("payload digest mismatch")
        return pickle.loads(payload)

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look up *key*; returns ``(hit, result)``.

        One ``open()`` of the key's path in its home shard.  A missing
        entry (or store) is a miss; a corrupted, truncated (a short read
        included), or unreadable one is a miss too and is deleted
        best-effort — the caller re-runs the task and the subsequent
        :meth:`put` repairs it.
        """
        path = self._entry_path(key)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                blob = os.read(fd, os.fstat(fd).st_size)
            finally:
                os.close(fd)
            return True, self._verify(blob)["result"]
        except FileNotFoundError:
            return False, None
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None

    def put(self, key: str, result: Any, label: str = "") -> bool:
        """Store *result* under *key*, atomically, in its home shard.

        Returns whether the entry was stored.  A result the pickle
        module cannot serialize, or a write the filesystem refuses, is
        not cached; the sweep already has the in-memory value and only
        replay speed is lost.
        """
        try:
            payload = pickle.dumps({"result": result, "label": label},
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        blob = (_MAGIC + b"\n"
                + hashlib.sha256(payload).hexdigest().encode() + b"\n"
                + payload)
        path = self._entry_path(key)
        try:
            try:
                self._write_atomic(path, blob)
            except FileNotFoundError:
                # First write to this shard, or the store was deleted.
                os.makedirs(os.path.dirname(path), exist_ok=True)
                self._write_atomic(path, blob)
        except OSError:
            return False
        return True

    @staticmethod
    def _write_atomic(path: str, blob: bytes) -> None:
        """Write *blob* to *path* through a same-directory temp file and
        :func:`os.replace`; on failure, remove the temp file and raise."""
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ----------------------------------------------------- maintenance -----
    def stats(self) -> CacheStats:
        """Census the cache directory (current vs. stale generations,
        plus the current generation's per-shard breakdown)."""
        current = self._generation_dir().name
        live = stale = live_b = stale_b = 0
        gens = set()
        per_shard: Dict[str, List[int]] = {}
        if self.root.is_dir():
            for gen in self.root.iterdir():
                if not gen.is_dir():
                    continue
                gens.add(gen.name)
                for entry in gen.rglob("*.pkl"):
                    if entry.name.startswith(".tmp-"):
                        continue
                    size = entry.stat().st_size
                    if gen.name == current:
                        live += 1
                        live_b += size
                        counts = per_shard.setdefault(entry.parent.name,
                                                      [0, 0])
                        counts[0] += 1
                        counts[1] += size
                    else:
                        stale += 1
                        stale_b += size
        breakdown = tuple(
            ShardStats(name=name, entries=counts[0], bytes=counts[1])
            for name, counts in sorted(per_shard.items()))
        shards = DEFAULT_SHARDS if os.path.isdir(self._gen) else 0
        return CacheStats(root=str(self.root), fingerprint=self.fingerprint,
                          entries=live, bytes=live_b, stale_entries=stale,
                          stale_bytes=stale_b, generations=len(gens),
                          shards=shards, shard_breakdown=breakdown)

    def _remove_generations(self, keep: str = "") -> Tuple[int, int]:
        """Delete every generation directory except *keep*, recursively.

        Returns:
            ``(entries_removed, bytes_freed)``; only entries count.
        """
        removed = freed = 0
        if not self.root.is_dir():
            return 0, 0
        for gen in list(self.root.iterdir()):
            if not gen.is_dir() or gen.name == keep:
                continue
            for entry in sorted(gen.rglob("*"), reverse=True):
                if entry.is_dir():
                    try:
                        entry.rmdir()
                    except OSError:
                        pass
                    continue
                size = entry.stat().st_size
                try:
                    entry.unlink()
                except OSError:
                    continue
                if (entry.suffix == ".pkl"
                        and not entry.name.startswith(".tmp-")):
                    removed += 1
                    freed += size
            try:
                gen.rmdir()
            except OSError:
                pass
        return removed, freed

    def gc(self) -> Tuple[int, int]:
        """Delete every entry from stale fingerprint generations.

        Returns:
            ``(files_removed, bytes_freed)``.
        """
        return self._remove_generations(keep=self._generation_dir().name)

    def clear(self) -> Tuple[int, int]:
        """Delete *every* entry, current generation included."""
        return self._remove_generations()
