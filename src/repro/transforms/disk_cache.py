"""Persistent, content-addressed compile-artifact store.

The in-memory :class:`~repro.transforms.compile_cache.CompileCache`
(PR 4) dies with the process; this module gives its entries a life on
disk so warm compiles survive restarts and are shared between
``repro-opt``, ``repro-run``, ``repro-lint`` and the ``repro-served``
daemon.  The design is a classic content-addressed store:

* **Addressing** — the cache key is PR 4's pair ``(textual fingerprint
  of the printed input, canonical pipeline spec)``; its blake2b digest
  becomes the file name, sharded into 2-hex-prefix directories
  (``<root>/ab/abcdef….json``) so no single directory grows unbounded.
  A changed input or changed pipeline spec therefore *cannot* hit — it
  addresses a different file.
* **Entries** — one JSON document per artifact: its text (for a
  compile, the optimized module printed **with ``loc`` trailers**, a
  lossless textual form), the statistics and remarks the cold run
  produced, the preserved-analysis names, any field of the table's own
  (a front entry's second-level fingerprint), and a fingerprint of the
  stored text so torn writes are detectable.
* **Atomicity** — writes go to a same-directory temp file and land via
  ``os.replace``; readers can never observe a half-written entry under
  POSIX rename semantics.  A write that fails part-way leaves only a
  temp file, which eviction sweeps with everything else.
* **Eviction** — least-recently-used by mtime under a byte budget
  (``max_bytes``); every hit refreshes the entry's mtime.  A store adds
  its size to a running total (one directory scan on first use) and the
  sweep — a full re-scan, oldest first — runs only when that total
  crosses the budget, so a store is O(1) in the number of entries and
  the store can only transiently exceed budget.  The total is this
  process's view: what another process wrote since is seen at the next
  sweep, whichever process's total triggers it.
* **Self-healing reads** — an entry that fails to decode, fails its
  stored-text fingerprint, or mismatches the requested key (a mangled
  or misplaced file) is *evicted on the spot* and the lookup reported
  as a miss, so the caller recompiles cold and write-through repairs
  the entry — the same recover-don't-fail contract PR 7 gave the
  in-memory hit path.  I/O errors likewise degrade to a miss: a broken
  disk must never fail a compile a cold run would pass.

Fault-injection points (:mod:`repro.faults`): ``disk-cache.read``
(``corrupt`` poisons the loaded payload, ``transient`` fails the read)
and ``disk-cache.write`` (``transient`` fails the store), both keyed by
the entry digest.  The chaos suite drives recovery through them.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..faults import TransientFault, fault_point
from .compile_cache import CacheKey, text_fingerprint

#: Bump when the entry schema changes, or when a shipped pipeline's
#: output changes: keys name the input and the pipeline spec, not what
#: the passes do with them.  Readers treat other versions as corrupt
#: (evict and recompile) rather than guessing.  Version 2: a front entry
#: names its second-level fingerprint in a field of its own.  Version 3:
#: Loop Internalization declines tiles that do not pay.  Version 4: it
#: keeps reduction pairs in a register across the tile loop.  Version 5:
#: Detect Reduction leaves out reads the work-group shares, so a tile of
#: 4 declines.  Version 6: replies are printed in upstream MLIR's clause
#: order.
ENTRY_VERSION = 6

#: Default on-disk budget: generous for a developer cache, small enough
#: that an unattended daemon cannot fill a disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Environment variable the CLIs read when ``--cache-dir`` is absent.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class CorruptEntry(RuntimeError):
    """A disk entry failed validation (decode, fingerprint, or key)."""


@dataclass
class DiskCacheStats:
    """Counters mirrored into ``--report`` and the daemon status."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_recoveries: int = 0
    write_errors: int = 0


class DiskCache:
    """A sharded on-disk map from compile-cache keys to JSON entries.

    Thread-safe: one lock serializes the store/evict bookkeeping; reads
    are lock-free (atomic-rename writers mean a reader sees either the
    old entry, the new entry, or nothing).  Safe to share between
    processes — cross-process races resolve to one winner's entry, and
    both candidates were byte-equivalent by construction (same key, same
    deterministic compile).
    """

    def __init__(self, root, max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be None or >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.stats = DiskCacheStats()
        #: Bytes believed on disk (``None`` until the first store scans):
        #: never below what this process knows it wrote, re-based by
        #: every sweep.  Removals are not subtracted — an over-estimate
        #: only makes the next sweep come early.
        self._total: Optional[int] = None
        self._lock = threading.Lock()

    # -- addressing ----------------------------------------------------------
    @staticmethod
    def digest_for(key: CacheKey) -> str:
        """Content address of a ``(fingerprint, pipeline spec)`` key."""
        fingerprint, spec = key
        raw = f"{fingerprint}\n{spec}".encode("utf-8")
        return hashlib.blake2b(raw, digest_size=16).hexdigest()

    def path_for(self, key: CacheKey) -> Path:
        digest = self.digest_for(key)
        return self.root / digest[:2] / f"{digest}.json"

    # -- reads ---------------------------------------------------------------
    def load(self, key: CacheKey) -> Optional[dict]:
        """The entry payload for ``key``, or ``None`` (a miss).

        Never raises: corrupt entries are evicted and counted as
        ``corrupt_recoveries``; I/O failures count as misses.  A hit
        refreshes the entry's mtime (the LRU clock).
        """
        path = self.path_for(key)
        digest = path.stem
        try:
            if fault_point("disk-cache.read", key=digest) == "corrupt":
                raise CorruptEntry("injected corrupt disk entry")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                self._miss()
                return None
            except json.JSONDecodeError as error:
                # Not an I/O failure: the file exists but its bytes are
                # garbage (a mangled or pre-atomic-write torn entry).
                raise CorruptEntry(
                    f"entry is not valid JSON: {error}") from error
            self._validate(key, payload)
        except CorruptEntry as error:
            self._recover(path, error)
            return None
        except (OSError, TransientFault, ValueError):
            # Unreadable disk or an injected read failure: a miss, not
            # an error — the caller recompiles cold.
            self._miss()
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # recency is advisory; the entry itself was served
        with self._lock:
            self.stats.hits += 1
        return payload

    def _validate(self, key: CacheKey, payload: object) -> None:
        if not isinstance(payload, dict):
            raise CorruptEntry("entry is not a JSON object")
        if payload.get("version") != ENTRY_VERSION:
            raise CorruptEntry(
                f"entry version {payload.get('version')!r} != "
                f"{ENTRY_VERSION}")
        fingerprint, spec = key
        if payload.get("fingerprint") != fingerprint \
                or payload.get("spec") != spec:
            # A mangled, misplaced, or hash-colliding file: its content
            # does not describe this key's compile.
            raise CorruptEntry("entry key fields mismatch the lookup key")
        text = payload.get("text")
        if not isinstance(text, str) or not text.strip():
            raise CorruptEntry("entry has no result text")
        if text_fingerprint(text) != payload.get("text_fp"):
            raise CorruptEntry("result text fails its stored fingerprint")

    def _miss(self) -> None:
        with self._lock:
            self.stats.misses += 1

    def _recover(self, path: Path, error: CorruptEntry) -> None:
        """Evict a corrupt entry so the next compile runs (and stores)
        cold instead of tripping over it again."""
        with self._lock:
            self.stats.corrupt_recoveries += 1
            self.stats.misses += 1
        try:
            os.remove(path)
            with self._lock:
                self.stats.evictions += 1
        except OSError:
            pass

    # -- writes --------------------------------------------------------------
    def store(self, key: CacheKey, text: str,
              statistics: Optional[List[Tuple[str, str, int]]] = None,
              remarks: Optional[List[str]] = None,
              preserved_analyses: Tuple[str, ...] = (),
              **fields) -> bool:
        """Persist one entry; returns ``False`` on I/O failure.

        ``fields`` are further JSON-able payload fields a table decodes
        (a front entry's ``resolved_fingerprint``).

        The write is atomic (same-directory temp file + ``os.replace``);
        when it takes the running total over ``max_bytes`` an LRU sweep
        brings the store back under it.
        """
        fingerprint, spec = key
        path = self.path_for(key)
        payload = {
            **fields,
            "version": ENTRY_VERSION,
            "fingerprint": fingerprint,
            "spec": spec,
            "text": text,
            "text_fp": text_fingerprint(text),
            "statistics": [list(triple) for triple in statistics or []],
            "remarks": list(remarks or []),
            "preserved_analyses": list(preserved_analyses),
        }
        encoded = json.dumps(payload, sort_keys=True)
        try:
            fault_point("disk-cache.write", key=path.stem)
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(temp, path)
        except (OSError, TransientFault):
            with self._lock:
                self.stats.write_errors += 1
            return False
        with self._lock:
            self.stats.stores += 1
        # json.dumps escapes to ASCII: characters are bytes.
        self._evict_over_budget(len(encoded))
        return True

    def recover(self, key: CacheKey) -> None:
        """The caller found a loaded entry unusable after the fact (for
        example it no longer parses): evict it and count the recovery."""
        with self._lock:
            self.stats.corrupt_recoveries += 1
        self.evict(key)

    def evict(self, key: CacheKey) -> bool:
        """Drop one entry (the caller detected it is unusable)."""
        try:
            os.remove(self.path_for(key))
        except OSError:
            return False
        with self._lock:
            self.stats.evictions += 1
        return True

    # -- eviction ------------------------------------------------------------
    def _entries_by_age(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` per entry file, oldest first.

        Leftover temp files (a writer died mid-store) are included so
        the sweep reclaims them too.
        """
        found: List[Tuple[float, int, Path]] = []
        for shard in self.root.iterdir():
            if not shard.is_dir():
                continue
            for path in shard.iterdir():
                try:
                    status = path.stat()
                except OSError:
                    continue
                found.append((status.st_mtime, status.st_size, path))
        found.sort(key=lambda item: item[0])
        return found

    def _evict_over_budget(self, written: int) -> None:
        """Account for ``written`` new bytes; sweep if over budget."""
        if self.max_bytes is None:
            return
        with self._lock:
            if self._total is not None:
                self._total += written
                if self._total <= self.max_bytes:
                    return
            # First use, or over budget by the running total: see what
            # is really there (other processes write here too).
            entries = self._entries_by_age()
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                self.stats.evictions += 1
            self._total = total

    # -- introspection -------------------------------------------------------
    def bytes_on_disk(self) -> int:
        return sum(size for _, size, _ in self._entries_by_age())

    def __len__(self) -> int:
        return sum(1 for _, _, path in self._entries_by_age()
                   if path.suffix == ".json")

    def __bool__(self) -> bool:
        # An empty store is still a store, and answering from
        # ``__len__`` would walk and ``stat`` every entry.
        return True

    def describe(self) -> Dict[str, int]:
        """JSON-able snapshot for ``--report`` and the daemon status."""
        with self._lock:
            stats = DiskCacheStats(**vars(self.stats))
        return {
            "entries": len(self),
            "bytes_on_disk": self.bytes_on_disk(),
            "hits": stats.hits,
            "misses": stats.misses,
            "stores": stats.stores,
            "evictions": stats.evictions,
            "corrupt_recoveries": stats.corrupt_recoveries,
            "write_errors": stats.write_errors,
        }

    def __repr__(self) -> str:
        return (f"<DiskCache root={str(self.root)!r} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")


def cache_dir_from_env() -> Optional[str]:
    """The ``REPRO_CACHE_DIR`` value, or ``None`` when unset/empty."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return value or None
