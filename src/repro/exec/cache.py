"""Content-addressed on-disk result store (``.repro-cache/``).

Layout: one directory per *source fingerprint generation* (first 16 hex
chars of :func:`~repro.exec.fingerprint.source_fingerprint`), holding
one file per result, ``<gen>/<key>.pkl``, named by the full task key —
the spec's content hash.  A key never changes meaning: same code + same
spec ⇒ same file, and a probe is one ``open()`` of that path.  Only the
sweep coordinator publishes, and a sweep holds tens to a few hundred
entries, so one directory per generation stays small.  ``gc`` and
``clear`` walk each generation recursively, so they also reclaim a
generation written in the sharded layout of earlier versions
(``<gen>/shard-XXX/<key>.pkl``).

Entry format (self-verifying)::

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple

from ..errors import DCudaUsageError
from .fingerprint import source_fingerprint
from .spec import RunSpec

__all__ = ["ResultCache", "CacheStats", "DEFAULT_CACHE_DIR"]

#: Default cache location, relative to the invoking working directory
#: (the repo root in every documented workflow).
DEFAULT_CACHE_DIR = ".repro-cache"

_MAGIC = b"repro-cache-v1"


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


class ResultCache:
    """Content-addressed result store for the sweep service.

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
        self._gen = os.path.join(self.root, self.fingerprint[:16], "")

    # ---------------------------------------------------------- keys -----
    def key_for(self, spec: RunSpec) -> str:
        """Task key: the spec's content hash."""
        return spec.content_hash()

    def _generation_dir(self) -> Path:
        return Path(self._gen)

    def _entry_path(self, key: str) -> str:
        """Where *key* — a hex content hash — lives."""
        return self._gen + key + ".pkl"

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

        One ``open()`` of the key's path.  A missing entry (or store) is
        a miss; a corrupted, truncated (a short read included), or
        unreadable one is a miss too and is deleted best-effort — the
        caller re-runs the task and the subsequent :meth:`put` repairs
        it.
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
        """Store *result* under *key*, atomically.

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
                # First write to this generation, or the store was
                # deleted.
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
        """Census the cache directory (current vs. stale generations)."""
        current = self._generation_dir().name
        live = stale = live_b = stale_b = 0
        gens = 0
        if self.root.is_dir():
            for gen in self.root.iterdir():
                if not gen.is_dir():
                    continue
                gens += 1
                for entry in gen.rglob("*.pkl"):
                    if entry.name.startswith(".tmp-"):
                        continue
                    size = entry.stat().st_size
                    if gen.name == current:
                        live += 1
                        live_b += size
                    else:
                        stale += 1
                        stale_b += size
        return CacheStats(root=str(self.root), fingerprint=self.fingerprint,
                          entries=live, bytes=live_b, stale_entries=stale,
                          stale_bytes=stale_b, generations=gens)

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
