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

The cache is thread-safe and is designed to be *shared*: one cache
serves every segment of a ``repro-opt`` batch run and every request
thread of ``repro-served``.

Every table of compiled artifacts is a :class:`ContentTable`: an LRU in
memory over an optional persistent
:class:`~repro.transforms.disk_cache.DiskCache` under the same
``(digest, tag)`` keys.  A memory miss reads the disk entry through and
promotes what it decodes to (for templates, the text printed with
``loc`` trailers, re-parsed losslessly); a store writes through so a
warm compile survives the process; an entry that fails to decode, or a
hit its caller finds unusable, is dropped from both tiers and the
lookup degrades to a cold compile (recover, don't fail).  The templates,
the front tier below and the executables of
:class:`~repro.interp.jit_runtime.ExecutableCache` are three instances,
each with its own bound and one counting rule: a lookup is a hit when
memory or disk answered it.

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

Every front door — ``repro-opt``, ``repro-run``, ``repro-lint``,
``repro-served`` and the ``--jobs`` worker — compiles through one
:class:`CompileSession`: front lookup → parse → verify → pipeline
(through this cache) → verify → print → front store, with one typed
:class:`CompileOutcome` that the door only formats.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import ir
from ..faults import FaultInjected, fault_point
from ..ir import Location, Operation, VerificationError, location_of
from ..ir.operations import op_memo
from ..ir.parser import CONTENT_TOKEN, ParseError

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
    """Hit/miss counters, exposed in reports and ``describe()``.

    The one counting rule: a lookup is a hit when memory *or* disk
    answered it; the disk's own tier counts in ``DiskCache.stats``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits dropped because the entry turned out unusable.
    recovered: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


#: What a table's ``decode`` raises for a payload it cannot use: a
#: missing or mistyped field, text that does not parse or compile.
_UNDECODABLE = (LookupError, TypeError, ValueError, SyntaxError,
                RecursionError, ParseError)


class ContentTable:
    """An LRU in memory over an optional ``DiskCache``, keyed alike.

    Keys are the disk cache's ``(digest, tag)`` pairs, so a memory miss
    reads the same address through (:meth:`get`), a store writes through
    (:meth:`put`) and an entry found unusable is dropped from both tiers
    (:meth:`forget`).  ``max_entries=None`` means unbounded; eviction is
    least-recently-used.  Thread-safe: one lock around the table, and
    disk I/O and decoding run outside it, so they never serialize
    concurrent lookups.
    """

    def __init__(self, max_entries: Optional[int] = None, disk=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        self.max_entries = max_entries
        #: Optional :class:`~repro.transforms.disk_cache.DiskCache`.
        self.disk = disk
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: CacheKey, decode: Callable[[dict], object]):
        """The value for ``key``, or ``None`` (a counted miss).

        A memory miss loads the disk entry and promotes ``decode`` of
        its payload.  A payload ``decode`` cannot use (it raises) is
        recovered on the disk and the lookup is a miss, so the caller
        compiles cold and :meth:`put` heals the entry.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
        payload = self.disk.load(key) if self.disk is not None else None
        if payload is not None:
            try:
                value = decode(payload)
            except _UNDECODABLE:
                # The text passed its fingerprint but is no entry of
                # this table (a schema drift or a printer/parser bug).
                self.disk.recover(key)
        with self._lock:
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                self._install(key, value)
        return value

    def put(self, key: CacheKey, value, text: Optional[str] = None,
            **meta) -> None:
        """Install ``value`` as the most recent entry, writing ``text``
        and ``meta`` through to the disk when ``text`` is given."""
        with self._lock:
            self._install(key, value)
        if text is not None and self.disk is not None:
            self.disk.store(key, text, **meta)

    def _install(self, key: CacheKey, value) -> None:
        # The caller holds the lock.
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def forget(self, key: CacheKey) -> None:
        """The caller found a hit on ``key`` unusable after the fact (a
        failed splice, an injected fault, text that no longer parses):
        drop it from both tiers and count the hit as one recovered
        miss, so the slow path answers a request still counted once."""
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self.stats.evictions += 1
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.recovered += 1
        if self.disk is not None:
            self.disk.recover(key)

    def touch(self, key: CacheKey):
        """Keep ``key`` recent; its value or ``None``, counting nothing."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

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

    def describe(self, disk: bool = True) -> Dict[str, object]:
        """JSON-able snapshot for reports and the daemon status: the
        counters, plus the disk tier's under ``"disk"`` when one is
        attached and ``disk`` asks for it."""
        with self._lock:
            summary: Dict[str, object] = {"entries": len(self._entries),
                                          **vars(self.stats)}
        if disk and self.disk is not None:
            summary["disk"] = self.disk.describe()
        return summary


def _decode_template(payload: dict) -> CachedCompile:
    return CachedCompile(
        module=ir.parse_module(payload["text"], filename="<disk-cache>"),
        statistics=[tuple(triple) for triple in payload["statistics"]],
        remarks=list(payload["remarks"]),
        preserved_analyses=tuple(payload["preserved_analyses"]))


def _decode_front(payload: dict) -> FrontEntry:
    fingerprint = payload["resolved_fingerprint"]
    if not isinstance(fingerprint, str):
        raise TypeError("a front entry names its second-level key")
    return FrontEntry(
        text=payload["text"],
        statistics=[tuple(triple) for triple in payload["statistics"]],
        remarks=list(payload["remarks"]),
        key=(fingerprint, payload["spec"]))


class CompileCache(ContentTable):
    """The table of compile templates, keyed ``(fingerprint, pipeline
    spec)``, with the front tier as a second table (:attr:`front`).

    ``max_entries`` bounds each table.  ``stats`` counts every compile
    request once: a front hit stands in for a hit here.
    """

    def __init__(self, max_entries: Optional[int] = None, disk=None):
        super().__init__(max_entries, disk)
        #: ``("front:" + front key, spec)`` -> :class:`FrontEntry`,
        #: over the same disk.
        self.front = ContentTable(max_entries, disk)
        #: Content token (see :meth:`memo_key_for`) -> fingerprint of
        #: the printed form of a module carrying it.
        self._printed: "OrderedDict[object, str]" = OrderedDict()

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
        second-level hit; an injected fault forgets the entry and
        reports a miss, so the caller takes the slow path.
        """
        key = (FRONT_PREFIX + front_key, pipeline_spec)
        entry = self.front.get(key, _decode_front)
        if entry is None:
            return None
        try:
            usable = fault_point("compile-cache.hit",
                                 key=entry.key[0]) != "corrupt"
        except FaultInjected:
            usable = False
        if not usable:
            self.front.forget(key)
            return None
        with self._lock:
            self.stats.hits += 1
        # The hit stands in for one on the second-level entry: keep that
        # one as recent, or the callers that need the module
        # (``execute``) find it evicted by miss traffic.
        self.touch(entry.key)
        return entry

    def front_store(self, front_key: str, text: str, key: CacheKey) -> None:
        """Record ``text`` as the reply for ``front_key``.

        ``key`` is the second-level key the compile that produced
        ``text`` ran under; its entry supplies what a hit reports.
        Nothing is recorded when that entry is gone (or the run never
        consulted the cache): a front hit must be indistinguishable
        from the second-level hit it stands in for.
        """
        compiled = self.touch(key)
        if compiled is None:
            return
        entry = FrontEntry(text=text, statistics=compiled.hit_statistics(),
                           remarks=list(compiled.remarks), key=key)
        self.front.put((FRONT_PREFIX + front_key, key[1]), entry, text,
                       statistics=entry.statistics, remarks=entry.remarks,
                       resolved_fingerprint=key[0])

    def front_recover(self, front_key: str, pipeline_spec: str) -> None:
        """The caller found a front hit unusable after the fact (its text
        no longer parses or verifies): forget it at both tiers and take
        back the hit counted here, so the request is still counted once
        when the slow path answers it."""
        self.front.forget((FRONT_PREFIX + front_key, pipeline_spec))
        with self._lock:
            self.stats.hits -= 1

    # -- second level --------------------------------------------------------
    def lookup(self, key: CacheKey) -> Optional[CachedCompile]:
        return self.get(key, _decode_template)

    def store(self, key: CacheKey, entry: CachedCompile) -> None:
        text = None
        if self.disk is not None:
            from ..ir import Printer

            text = Printer(print_locations=True).print_module(entry.module)
        self.put(key, entry, text, statistics=entry.statistics,
                 remarks=entry.remarks,
                 preserved_analyses=entry.preserved_analyses)

    def clear(self) -> None:
        super().clear()
        self.front.clear()
        with self._lock:
            self._printed.clear()

    def describe(self, disk: bool = True) -> Dict[str, object]:
        """:meth:`ContentTable.describe` of the templates, with the front
        table's counters under ``"front"`` (the disk the two share is
        reported once)."""
        summary = super().describe(disk)
        summary["front"] = self.front.describe(disk=False)
        return summary

    def __repr__(self) -> str:
        return (f"<CompileCache entries={len(self)} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")


# ---------------------------------------------------------------------------
# The compile session: the one text-in, outcome-out sequence
# ---------------------------------------------------------------------------

@dataclass
class CompileOutcome:
    """What one :meth:`CompileSession.compile` answered.

    ``kind`` is ``None`` for a success, else ``parse`` (the text is no
    module), ``pipeline`` (the pipeline cannot be built), ``verify`` (the
    input or the pipeline's output fails the verifier), ``compile`` (a
    pass rejected its run) or ``internal`` (a pass crashed: the error is
    a :class:`~repro.transforms.pass_manager.PassCrash` naming it), with
    the ``error`` raised and its ``location``.  ``module`` is the
    compiled module (the parsed one on an error; on a front hit only for
    a session that wants modules), ``text`` the printed one, ``report``
    the ``CompileReport`` the compile added to, ``cached`` whether the
    cache answered.
    """

    kind: Optional[str] = None
    error: Optional[Exception] = None
    location: Optional[Location] = None
    module: Optional[Operation] = None
    text: Optional[str] = None
    report: object = None
    cached: bool = False

    @property
    def message(self) -> str:
        """The error as every door prints it, after its own prefix."""
        if self.kind == "parse":
            return f"parse error: {self.error}"
        if self.kind == "verify":
            return f"verification failed:\n{self.error.render()}"
        return str(self.error)

    @property
    def exit_code(self) -> int:
        """The CLI status: 1 for input that does not parse or verify,
        2 for a pipeline that cannot be built or run, or that crashed."""
        return 1 if self.kind in ("parse", "verify") else 2


class _RecordOnly:
    """A located compile's cache: records, never hits (a template's
    locations name the text that filled it)."""

    def __init__(self, cache: CompileCache):
        self.cache = cache

    def lookup(self, key: CacheKey) -> None:
        return None

    def __getattr__(self, name: str):
        return getattr(self.cache, name)


@dataclass
class CompileSession:
    """Text in, one :class:`CompileOutcome` out.

    ``pipeline`` is a pass manager, a zero-argument callable building one
    when a compile gets past the parse (its ``ValueError`` is a
    ``pipeline`` error), or ``None`` (parse, verify, print).  ``cache`` is
    attached to the manager; the front tier is asked when a compile names
    a key ``form`` (what the reply depends on besides the text and the
    pipeline) and the canonical ``spec`` is known, given or the given
    manager's.  A front hit builds no pass manager.  ``want_module``: the
    door needs a module, not text, so a front hit's text is parsed (and
    verified) back, and one that no longer does either is recovered and
    the source compiled.  ``engine`` (``repro-opt --verify-diagnostics``)
    receives the verifier's findings; ``report`` accumulates every
    compile's statistics (without one, each run makes its own).  The
    built manager stays in :attr:`manager`, for a pool to take back.  A
    ``print_locations`` compile never takes a second-level hit.
    """

    pipeline: object = None
    spec: Optional[str] = None
    verify: bool = True
    allow_unregistered: bool = False
    cache: Optional[CompileCache] = None
    engine: object = None
    print_locations: bool = False
    want_module: bool = False
    report: object = None

    def __post_init__(self) -> None:
        pipeline = self.pipeline
        self.manager = None if callable(pipeline) else pipeline
        if pipeline is None:
            self.spec = None  # no pipeline, no front tier
        elif self.manager is not None and self.cache is not None:
            self.manager.cache = self._manager_cache()
            self.spec = self.spec or self.manager.to_spec()

    def _manager_cache(self):
        return _RecordOnly(self.cache) if self.print_locations else self.cache

    def compile(self, text: str, filename: str,
                form: Optional[tuple] = None,
                first_line: int = 1) -> CompileOutcome:
        """Compile ``text``, which starts on line ``first_line`` of
        ``filename`` (locations count the file's lines)."""
        front_key = None
        if form is not None and self.cache is not None and self.spec:
            start = time.perf_counter()
            front_key = CompileCache.front_key(text, self.spec, *form)
            outcome = self._recorded(front_key, start)
            if outcome is not None:
                return outcome
        try:
            module = ir.parse_module(
                text, allow_unregistered=self.allow_unregistered,
                filename=filename, first_line=first_line)
        except ParseError as exc:
            return CompileOutcome("parse", exc, Location(
                filename, exc.line or 0, exc.column or 0))
        if self.manager is None and self.pipeline is not None:
            try:
                self.manager = self.pipeline()
            except ValueError as exc:
                return CompileOutcome("pipeline", exc, location_of(module),
                                      module)
            if self.cache is not None:
                self.manager.cache = self._manager_cache()
        manager, report, cached = self.manager, self.report, False
        try:
            if self.verify:
                ir.verify(module, engine=self.engine)
            if manager is not None:
                hits = report.get_statistic("compile-cache", "hits") \
                    if report is not None else 0
                report = manager.run(module, report=report)
                cached = report.get_statistic("compile-cache", "hits") > hits
                if self.verify:
                    ir.verify(module, engine=self.engine)
        except VerificationError as exc:
            return CompileOutcome("verify", exc, exc.diagnostics[0].location
                                  if exc.diagnostics else None, module)
        except ValueError as exc:
            return CompileOutcome("compile", exc, location_of(module), module)
        except Exception as exc:
            from .pass_manager import PassCrash  # loaded: a manager ran

            if type(exc) is not PassCrash:
                raise
            return CompileOutcome("internal", exc, location_of(module),
                                  module)
        printed = None
        if not self.want_module or front_key is not None:
            printed = ir.Printer(print_locations=self.print_locations
                                 ).print_module(module) + "\n"
        if front_key is not None and report.cache_key is not None:
            self.cache.front_store(front_key, printed, report.cache_key)
        return CompileOutcome(module=module, text=printed, report=report,
                              cached=cached)

    def _recorded(self, front_key: str, start: float
                  ) -> Optional[CompileOutcome]:
        """The front tier's answer, or ``None`` to compile the source."""
        recorded = self.cache.front_lookup(front_key, self.spec)
        if recorded is None:
            return None
        module = None
        if self.want_module:
            try:
                module = ir.parse_module(
                    recorded.text, allow_unregistered=self.allow_unregistered)
                if self.verify:
                    ir.verify(module)
            except (ParseError, VerificationError, RecursionError):
                # A stale or damaged entry costs time, never the run.
                self.cache.front_recover(front_key, self.spec)
                return None
        if self.report is not None:
            self.report.add_cache_hit(recorded.statistics, recorded.remarks,
                                      time.perf_counter() - start)
        return CompileOutcome(module=module, text=recorded.text,
                              report=self.report, cached=True)
