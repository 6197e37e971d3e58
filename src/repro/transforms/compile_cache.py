"""Fingerprint-keyed compile caching.

A :class:`CompileCache` memoizes pass-manager runs: the key is
``(textual fingerprint of the input, canonical pipeline spec)`` and
the value is a detached *template* of the optimized module plus the
statistics and remarks the run produced.  The textual fingerprint is a
hash of the *printed* module — hits splice a printable result back in,
so the key must capture exactly what determines output identity,
including SSA name spellings (the structural fingerprint in
``repro.ir.fingerprint`` deliberately ignores those; it serves
name-insensitive equivalence queries like function deduplication).  Compiling the same module
through the same pipeline a second time short-circuits the whole
pipeline — the template is deep-cloned and spliced back in, which is
structurally identical to a cold compile (``Operation.clone`` copies the
full region tree) and several times cheaper than re-parsing printed IR.
The template itself is never handed out, so later mutation of a spliced
result cannot poison the cache.

The cache is thread-safe (one lock around the LRU table) and is designed
to be *shared*: one cache serves every segment of a ``repro-opt``
batch run and every worker of a ``jobs=N`` pool.

Since PR 8 the in-memory table can sit on top of a persistent
:class:`~repro.transforms.disk_cache.DiskCache` (``disk=``), forming a
two-tier read-through/write-through hierarchy: a memory miss consults
the disk store, re-parses the persisted text into a template (printed
with ``loc`` trailers, so the round trip is lossless), and
promotes it so later lookups hit in memory; stores write through so a
warm compile survives the process.  Disk entries that fail to re-parse
are evicted on the spot and the lookup degrades to a cold compile —
PR 7's recover-don't-fail contract extended to persistent state.

Two key levels.  The key above — the *second level* — needs a parsed
module (it hashes the printed form) and answers with an op graph.  In
front of it sits a byte-addressed **front tier** for callers that start
from text and want text back (``repro-served``, ``repro-opt``): its key
hashes the *source bytes* with everything else that determines the
reply (:meth:`CompileCache.front_key`), its value is the printed output
plus the statistics and remarks a second-level hit would report
(:class:`FrontEntry`), so a front hit costs a hash and a dict lookup and
builds no ``Operation``.  The second level stays because only it makes
differently spelled inputs that print the same share one compile; every
front entry names the second-level key it resolved to.  For callers
that already hold a module, :meth:`CompileCache.memo_key_for` links the
levels the other way: the content token ``parse_module`` (source
digest) or a cache-hit splice (the entry's key) memoizes on a module
names its printed-form fingerprint in a bounded memo until the module is
edited, so the same content is printed once.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults import FaultInjected, fault_point
from ..ir import Operation
from ..ir.operations import op_memo
from ..ir.parser import CONTENT_TOKEN

#: Cache keys: ``(input fingerprint, canonical pipeline spec)``.
CacheKey = Tuple[str, str]

#: What a front-tier entry's fingerprint starts with in the
#: :class:`~repro.transforms.disk_cache.DiskCache`, which both levels
#: share: a front key can never address a second-level entry.
FRONT_PREFIX = "front:"

#: Bound of the content token -> printed-form-fingerprint memo (a few
#: dozen bytes an entry; the oldest goes first).
_MEMO_ENTRIES = 4096


def text_fingerprint(text: str) -> str:
    """Hex digest of a printed module: the cache's input identity."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CachedCompile:
    """The reusable outcome of one pass-manager run."""

    #: Detached optimized module; hits splice a deep clone of it.
    module: Operation
    #: ``(pass_name, statistic name, value)`` triples.
    statistics: List[Tuple[str, str, int]] = field(default_factory=list)
    remarks: List[str] = field(default_factory=list)
    #: Class names of analyses the compiling run left valid for the cached
    #: module; a hit carries them so consumers know what can be warmed.
    preserved_analyses: Tuple[str, ...] = ()

    def materialize(self) -> Operation:
        """A private deep clone of the cached module."""
        return self.module.clone({})

    def hit_statistics(self) -> List[Tuple[str, str, int]]:
        """The triples a hit on this entry adds to a compile report."""
        triples = list(self.statistics)
        triples.append(("compile-cache", "hits", 1))
        if self.preserved_analyses:
            triples.append(("compile-cache", "analyses_carried",
                            len(self.preserved_analyses)))
        return triples


@dataclass
class FrontEntry:
    """What a front-key hit answers with: text, never a module."""

    #: The printed output, exactly as the caller emitted it.
    text: str
    #: The statistics and remarks a second-level hit reports.
    statistics: List[Tuple[str, str, int]]
    remarks: List[str]
    #: The second-level key the recorded compile resolved to.
    key: CacheKey


@dataclass
class CacheStats:
    """Hit/miss counters, exposed in reports and ``describe()``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits dropped because the entry turned out unusable (front tier;
    #: the second level reports these per compile, as a statistic).
    recovered: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class CompileCache:
    """An LRU map from ``(fingerprint, pipeline spec)`` to compile results.

    ``max_entries=None`` means unbounded — the right default for a batch
    driver whose working set is one invocation.  Long-lived services
    should bound it; eviction is least-recently-used.
    """

    def __init__(self, max_entries: Optional[int] = None, disk=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        self.max_entries = max_entries
        #: Optional :class:`~repro.transforms.disk_cache.DiskCache`
        #: backing tier (read-through on miss, write-through on store).
        self.disk = disk
        self.stats = CacheStats()
        #: Front-tier counters; a front hit also counts as one of
        #: ``stats.hits``, so the top level still counts every request
        #: exactly once.
        self.front_stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CachedCompile]" = OrderedDict()
        self._front: "OrderedDict[str, FrontEntry]" = OrderedDict()
        #: Content token (see :meth:`memo_key_for`) -> fingerprint of
        #: the printed form of a module carrying it.
        self._printed: "OrderedDict[object, str]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key_for(op: Operation, pipeline_spec: str) -> CacheKey:
        """The cache key of compiling ``op`` through ``pipeline_spec``.

        Must be computed *before* the run — the fingerprint of the input,
        not of the optimized output.  Keyed on the printed form: inputs
        that print identically compile identically, and inputs that print
        differently (even only in SSA names) must never share a key, or a
        hit would rewrite the later input's spelling.
        """
        from ..ir import Printer

        return (text_fingerprint(Printer().print_module(op)), pipeline_spec)

    def memo_key_for(self, op: Operation, pipeline_spec: str) -> CacheKey:
        """:meth:`key_for`, printing ``op`` only when it has to.

        ``parse_module`` and the cache-hit splice memoize a *content
        token* on the module (:data:`repro.ir.parser.CONTENT_TOKEN`):
        the digest of the parsed source, or the key of the spliced
        entry.  Until the module is edited — an operand, attribute,
        block, region or ``name_hint`` write inside it drops the token,
        edits elsewhere do not — it prints what every module with that
        token prints, so the fingerprint is remembered per token.
        """
        token = op_memo(op).get(CONTENT_TOKEN)
        if token is None:
            return self.key_for(op, pipeline_spec)
        with self._lock:
            fingerprint = self._printed.get(token)
        if fingerprint is None:
            fingerprint = self.key_for(op, pipeline_spec)[0]
            with self._lock:
                self._printed[token] = fingerprint
                if len(self._printed) > _MEMO_ENTRIES:
                    self._printed.popitem(last=False)
        return (fingerprint, pipeline_spec)

    # -- front tier ----------------------------------------------------------
    @staticmethod
    def front_key(source: str, pipeline_spec: str, *form: object) -> str:
        """The front key of compiling ``source`` through ``pipeline_spec``.

        ``pipeline_spec`` must be the canonical spelling; ``form`` is
        everything else the reply depends on — who prints it and how,
        whether it was verified.  The entry schema version is hashed in,
        so a schema bump orphans old entries instead of misreading them.
        """
        from .disk_cache import ENTRY_VERSION

        digest = hashlib.blake2b(digest_size=16)
        for part in (repr((ENTRY_VERSION,) + form), pipeline_spec, source):
            data = part.encode("utf-8")
            digest.update(b"%d:" % len(data))
            digest.update(data)
        return digest.hexdigest()

    def front_lookup(self, front_key: str,
                     pipeline_spec: str) -> Optional[FrontEntry]:
        """The recorded reply for ``front_key``, or ``None``.

        A hit passes the same ``compile-cache.hit`` fault point as a
        second-level hit; an injected fault drops the entry and reports
        a miss, so the caller takes the slow path.
        """
        with self._lock:
            entry = self._front.get(front_key)
            if entry is not None:
                self._front.move_to_end(front_key)
        if entry is None and self.disk is not None:
            entry = self._front_read_through(front_key, pipeline_spec)
        if entry is not None:
            try:
                if fault_point("compile-cache.hit",
                               key=entry.key[0]) == "corrupt":
                    entry = None
            except FaultInjected:
                entry = None
            if entry is None:
                with self._lock:
                    if self._front.pop(front_key, None) is not None:
                        self.front_stats.evictions += 1
                    self.front_stats.recovered += 1
        with self._lock:
            if entry is None:
                self.front_stats.misses += 1
            else:
                self.front_stats.hits += 1
                self.stats.hits += 1
                # The hit stands in for one on the second-level entry:
                # keep that one as recent, or the callers that need the
                # module (``execute``) find it evicted by miss traffic.
                if entry.key in self._entries:
                    self._entries.move_to_end(entry.key)
        return entry

    def _front_read_through(self, front_key: str,
                            pipeline_spec: str) -> Optional[FrontEntry]:
        disk_key = (FRONT_PREFIX + front_key, pipeline_spec)
        payload = self.disk.load(disk_key)
        if payload is None:
            return None
        try:
            # A front entry has no module and so no analyses to carry:
            # that slot holds the second-level fingerprint instead.
            (fingerprint,) = payload["preserved_analyses"]
            entry = FrontEntry(
                text=payload["text"],
                statistics=[tuple(triple)
                            for triple in payload["statistics"]],
                remarks=list(payload["remarks"]),
                key=(fingerprint, pipeline_spec))
        except (KeyError, TypeError, ValueError):
            # Valid JSON around intact text, but not a front entry.
            self.disk.recover(disk_key)
            return None
        self._front_promote(front_key, entry)
        return entry

    def _front_promote(self, front_key: str, entry: FrontEntry) -> None:
        with self._lock:
            self._front[front_key] = entry
            self._front.move_to_end(front_key)
            if self.max_entries is not None:
                while len(self._front) > self.max_entries:
                    self._front.popitem(last=False)
                    self.front_stats.evictions += 1

    def front_store(self, front_key: str, text: str, key: CacheKey) -> None:
        """Record ``text`` as the reply for ``front_key``.

        ``key`` is the second-level key the compile that produced
        ``text`` ran under; its entry supplies what a hit reports.
        Nothing is recorded when that entry is gone (or the run never
        consulted the cache): a front hit must be indistinguishable
        from the second-level hit it stands in for.
        """
        with self._lock:
            compiled = self._entries.get(key)
        if compiled is None:
            return
        entry = FrontEntry(text=text, statistics=compiled.hit_statistics(),
                           remarks=list(compiled.remarks), key=key)
        self._front_promote(front_key, entry)
        if self.disk is not None:
            self.disk.store(
                (FRONT_PREFIX + front_key, key[1]), text,
                statistics=entry.statistics, remarks=entry.remarks,
                preserved_analyses=(key[0],))

    def front_recover(self, front_key: str, pipeline_spec: str) -> None:
        """The caller found a front hit unusable after the fact (its text
        no longer parses or verifies): drop the entry from both tiers
        and turn the counted hit into a counted recovery, so the request
        is still counted once when the slow path answers it."""
        with self._lock:
            if self._front.pop(front_key, None) is not None:
                self.front_stats.evictions += 1
            self.front_stats.recovered += 1
            self.front_stats.hits -= 1
            self.front_stats.misses += 1
            self.stats.hits -= 1
        if self.disk is not None:
            self.disk.recover((FRONT_PREFIX + front_key, pipeline_spec))

    # -- second level --------------------------------------------------------
    def lookup(self, key: CacheKey) -> Optional[CachedCompile]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
        if self.disk is None:
            return None
        # Read-through: parse/promote runs outside the lock — disk I/O
        # and re-parsing must not serialize concurrent compiles.
        entry = self._read_through(key)
        if entry is not None:
            self._promote(key, entry)
        return entry

    def _read_through(self, key: CacheKey) -> Optional[CachedCompile]:
        payload = self.disk.load(key)
        if payload is None:
            return None
        from ..ir import ParseError, parse_module

        try:
            module = parse_module(payload["text"], filename="<disk-cache>")
        except (ParseError, RecursionError):
            # The text passed its fingerprint but no longer parses (a
            # schema drift or a printer/parser bug): evict and recompile
            # rather than fail a compile a cold run would pass.
            self.disk.recover(key)
            return None
        return CachedCompile(
            module=module,
            statistics=[tuple(triple) for triple in payload["statistics"]],
            remarks=list(payload["remarks"]),
            preserved_analyses=tuple(payload["preserved_analyses"]),
        )

    def _promote(self, key: CacheKey, entry: CachedCompile) -> None:
        """Install a disk-tier hit in the memory table without touching
        hit/miss counters (the lookup already counted a memory miss)."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def store(self, key: CacheKey, entry: CachedCompile) -> None:
        self._promote(key, entry)
        if self.disk is not None:
            self._write_through(key, entry)

    def _write_through(self, key: CacheKey, entry: CachedCompile) -> None:
        from ..ir import Printer

        text = Printer(print_locations=True).print_module(entry.module)
        self.disk.store(
            key, text,
            statistics=entry.statistics,
            remarks=entry.remarks,
            preserved_analyses=entry.preserved_analyses,
        )

    def evict(self, key: CacheKey) -> bool:
        """Drop one entry (the self-healing path: a hit whose
        clone/splice failed is evicted so the next compile runs cold
        instead of re-serving the corrupt template)."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.stats.evictions += 1
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __bool__(self) -> bool:
        # An empty cache is still a cache (``cache or CompileCache()``
        # would otherwise replace one that has not stored anything yet).
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._front.clear()
            self._printed.clear()

    def describe(self) -> Dict[str, object]:
        """JSON-able snapshot for reports and benchmarks.

        Memory-tier counters live at the top level (their historical
        shape; ``hits`` includes the front tier's, so every request is
        counted once); the front tier's own counters appear under
        ``"front"`` and, when a disk tier is attached, its counters
        under ``"disk"``.
        """
        with self._lock:
            summary: Dict[str, object] = {
                "entries": len(self._entries),
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "front": {
                    "entries": len(self._front),
                    "hits": self.front_stats.hits,
                    "misses": self.front_stats.misses,
                    "evictions": self.front_stats.evictions,
                    "recovered": self.front_stats.recovered,
                },
            }
        if self.disk is not None:
            summary["disk"] = self.disk.describe()
        return summary

    def __repr__(self) -> str:
        return (f"<CompileCache entries={len(self)} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")
