"""An opt-in, content-keyed on-disk tier under the CompilationCache.

The in-memory :class:`~repro.engine.cache.CompilationCache` dies with the
interpreter, so every CLI invocation and every worker process of a
parallel batch used to recompile the same DTD and closure automata.
:class:`DiskCacheTier` persists the compiled artifacts:

* **content-keyed** — the same key tuples the memory cache uses are
  canonicalized (frozensets sorted, tuples recursed, everything else by
  its deterministic ``repr``) and hashed, so the file name is stable
  across processes and interpreter restarts regardless of hash
  randomization;
* **version-stamped** — :data:`CACHE_FORMAT_VERSION` enters both the
  digest and the stored payload, so a format bump simply stops old files
  from being read (they are reaped lazily, never misinterpreted);
* **atomic** — writes go to a same-directory temporary file followed by
  ``os.replace``, so concurrent workers sharing one directory never see
  a half-written artifact;
* **corruption-tolerant** — any unreadable, truncated, tampered or
  version-skewed file is treated as a miss, deleted best-effort, and the
  artifact is rebuilt; a corrupt cache can slow a run down but never
  change a verdict.

Artifacts that fail to pickle are skipped silently (counted in
``stats()["unpicklable"]``) — the disk tier is an accelerator, never a
requirement.  Nothing is deleted when a mapping is edited: the edited
content has a new key, so it simply misses, and the old file serves an
undo.  ``clear()`` empties the directory.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from hashlib import sha256
from pathlib import Path
from typing import Hashable

from repro.engine.cache import MISS

#: Bump when the key layout or any pickled artifact's shape changes.
#: 7: regex nodes pickle through their constructor, without a kept hash.
CACHE_FORMAT_VERSION = 7


def canonical_key(obj: object) -> str:
    """A deterministic textual form of a cache key.

    ``pickle`` and ``repr`` of sets depend on iteration order, which
    depends on randomized string hashing — useless for cross-process
    file names.  This canonicalization recurses through tuples and sorts
    set elements; leaves rely on deterministic ``repr`` (DTD keys are
    already sorted ``repr`` strings, patterns are frozen dataclasses).
    """
    if isinstance(obj, tuple | list):
        return "(" + ",".join(canonical_key(item) for item in obj) + ")"
    if isinstance(obj, frozenset | set):
        return "{" + ",".join(sorted(canonical_key(item) for item in obj)) + "}"
    return f"{type(obj).__name__}:{obj!r}"


def key_digest(key: Hashable, version: int = CACHE_FORMAT_VERSION) -> str:
    """The hex digest naming *key*'s artifact file."""
    text = f"v{version}|{canonical_key(key)}"
    return sha256(text.encode()).hexdigest()


class DiskCacheTier:
    """Content-keyed artifact files under one directory.

    ``get`` returns :data:`MISS` (never raises) when the artifact is
    absent or unreadable; ``put`` is best-effort.  Several processes may
    share a directory concurrently — the worst interleaving is a
    redundant rebuild, never a torn read.  Reads and writes are also
    safe from concurrent *threads* of one process (the ``repro serve``
    daemon): file operations are atomic at the OS level and the
    counters mutate under a lock, so ``stats()`` stays exact.
    """

    def __init__(self, directory: str | Path, version: int = CACHE_FORMAT_VERSION):
        self.directory = Path(directory)
        self.version = version
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.unpicklable = 0
        self._lock = threading.Lock()
        self.directory.mkdir(parents=True, exist_ok=True)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def path_for(self, key: Hashable) -> Path:
        return self.directory / f"{key_digest(key, self.version)}.pkl"

    def get(self, key: Hashable) -> object:
        """The stored artifact, or :data:`MISS`; never raises."""
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
        except OSError:
            with self._lock:
                self.misses += 1
            return MISS
        try:
            stamp, value = pickle.loads(payload)
            if stamp != self.version:
                raise ValueError(f"version stamp {stamp!r} != {self.version!r}")
        except Exception:
            # truncated, tampered, unreadable or version-skewed: rebuild
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return MISS
        with self._lock:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> bool:
        """Store *value* atomically; False (silently) when impossible."""
        try:
            payload = pickle.dumps(
                (self.version, value), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            with self._lock:
                self.unpicklable += 1
            return False
        path = self.path_for(key)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        with self._lock:
            self.stores += 1
        return True

    def __len__(self) -> int:
        return sum(1 for __ in self.directory.glob("*.pkl"))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "disk_hits": self.hits,
                "disk_misses": self.misses,
                "disk_stores": self.stores,
                "disk_corrupt": self.corrupt,
                "unpicklable": self.unpicklable,
            }

    def clear(self) -> None:
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
