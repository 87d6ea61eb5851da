"""Two-level artifact cache: process memory in front of a shared directory.

The toolflow compiles each loop once and reuses the result, as a real
toolchain caches object code.  Two kinds of artifact are cached this
way: modulo-schedule plans (:mod:`repro.compiler.linker`) and generated
simulator source (:mod:`repro.sim.codegen`).  Each kind is one
:class:`ArtifactCache`; they share one policy and one directory:

* a process-wide memory level keyed by the caller's structural key;
* an optional persistent level, one content-addressed pickle per
  artifact in the directory set by :func:`configure_schedule_cache` or
  the ``REPRO_SCHEDULE_CACHE`` environment variable (so worker
  processes and benchmark subprocesses inherit it);
* the disk key is the caller's key prefixed with a digest of the
  producing modules' source, so a directory written by another version
  of the scheduler or generator reads as a miss, never a stale artifact;
* the full disk key is stored and compared on load, and the value's
  type checked, so a foreign, torn or corrupt file reads as a miss and
  the recompute overwrites it;
* stores are atomic (tmp + rename), and a read-only or full disk never
  fails the caller.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
from typing import Callable, Dict, Optional, Sequence

_directory: Optional[str] = None


def configure_schedule_cache(directory: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` unset) the persistent cache directory."""
    global _directory
    _directory = os.fspath(directory) if directory is not None else None
    return _directory


def schedule_cache_dir() -> Optional[str]:
    """The active persistent cache directory, if any.

    The explicit :func:`configure_schedule_cache` setting wins; the
    ``REPRO_SCHEDULE_CACHE`` environment variable provides the default.
    """
    return _directory or os.environ.get("REPRO_SCHEDULE_CACHE") or None


class ArtifactCache:
    """One artifact kind: files ``<sha256>`` + *suffix*, values of type
    *kind*, produced by the code in *modules*.  ``stats`` counts
    ``memory_hits``, ``disk_hits`` and, under the name *computed*, the
    artifacts computed since the last :meth:`clear`."""

    def __init__(self, suffix: str, modules: Sequence[str], kind: type,
                 computed: str) -> None:
        self.suffix = suffix
        self.modules = tuple(modules)
        self.kind = kind
        self.computed = computed
        self.memory: Dict[tuple, object] = {}
        self.stats = dict.fromkeys(("memory_hits", "disk_hits", computed), 0)
        self._digest: Optional[str] = None

    def clear(self) -> None:
        """Drop the memory level and zero the counters (disk untouched)."""
        self.memory.clear()
        for name in self.stats:
            self.stats[name] = 0

    def fingerprint(self) -> str:
        """Digest of the producing modules' source (once per process)."""
        if self._digest is None:
            digest = hashlib.sha256()
            for name in self.modules:
                with open(importlib.import_module(name).__file__, "rb") as fh:
                    digest.update(fh.read())
            self._digest = digest.hexdigest()[:16]
        return self._digest

    def get(self, key: tuple, compute: Callable[[], object]):
        """The artifact for *key*: memory, then disk, then *compute*."""
        directory = schedule_cache_dir()
        if directory is not None:
            disk_key, path = self._locate(directory, key)
        value = self.memory.get(key)
        if value is not None:
            self.stats["memory_hits"] += 1
            # Write-through for a directory configured after the value
            # was computed, so a warm process can still populate it.
            if directory is not None and not os.path.exists(path):
                self._store(path, disk_key, value)
            return value
        if directory is not None:
            value = self._load(path, disk_key)
            if value is not None:
                self.stats["disk_hits"] += 1
                self.memory[key] = value
                return value
        value = compute()
        self.stats[self.computed] += 1
        self.memory[key] = value
        if directory is not None:
            self._store(path, disk_key, value)
        return value

    def _locate(self, directory: str, key: tuple):
        """``(disk key, path)``: the path is the SHA-256 of the disk
        key's canonical repr."""
        disk_key = (self.fingerprint(),) + key
        digest = hashlib.sha256(repr(disk_key).encode("utf-8")).hexdigest()
        return disk_key, os.path.join(directory, digest + self.suffix)

    def _load(self, path: str, disk_key: tuple):
        """Read one file; any corruption reads as a miss, never a crash."""
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError, TypeError):
            return None
        # The full key is compared, so a (vanishingly unlikely) digest
        # collision or a foreign file degrades to a recompute.
        if not isinstance(payload, dict) or payload.get("key") != disk_key:
            return None
        value = payload.get("value")
        return value if isinstance(value, self.kind) else None

    def _store(self, path: str, disk_key: tuple, value) -> None:
        """Atomic write (tmp + rename) so readers never see a torn file."""
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = "%s.tmp.%d" % (path, os.getpid())
            with open(tmp, "wb") as fh:
                pickle.dump({"key": disk_key, "value": value}, fh)
            os.replace(tmp, path)
        except OSError:
            pass  # a read-only or full disk must never fail the caller
