"""MLIR-shaped analysis manager: cached, invalidation-aware analyses.

Passes request analyses by class —

::

    dominance = am.get(DominanceInfo, function)
    uniformity = am.get(UniformityAnalysis, module)

— and the manager constructs, caches and invalidates them:

* results are cached per ``(analysis class, anchor op)``, weakly on the
  anchor, and tagged with the anchor's version stamp at construction time
  (:func:`~repro.ir.operations.version_stamp`); a lookup after an edit
  inside the anchor's function or module is a miss (the safety net under
  passes that mutate without declaring it);
* after a pass runs on an anchor, :meth:`invalidate` evicts every cached
  analysis whose anchor is that op, one of its ancestors or one of its
  descendants — *except* the classes the pass declares in
  ``Pass.preserves()`` (MLIR's ``markAnalysesPreserved``) — and every
  analysis whose anchor left the tree it was cached in (an erased
  loop), so no entry outlives its anchor's place in the IR;
* hit/miss/invalidation counts are kept per manager.

The *current* manager is tracked per thread
(:func:`current_analysis_manager` / :func:`analysis_scope`) rather than
stored on pass instances: ``repro-served`` request threads share one
manager and may run the same pipeline at once, each in its own scope.
"""

from __future__ import annotations

import inspect
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from ..ir import Operation
from ..ir.operations import version_stamp

#: Sentinel for ``Pass.preserves()``: every cached analysis survives.
ALL_ANALYSES = object()


class _Entry:
    """One cached analysis result.  Its anchor is the entry's weak key;
    ``root`` weakly names the tree the anchor was in when cached."""

    __slots__ = ("analysis", "stamp", "root")

    def __init__(self, analysis: Any, stamp: Optional[int],
                 root: "weakref.ref[Operation]"):
        self.analysis = analysis
        self.stamp = stamp
        self.root = root


def _root(op: Operation) -> Operation:
    """The outermost op of the tree ``op`` is in (``op`` when detached)."""
    parent = op.parent_op()
    while parent is not None:
        op, parent = parent, parent.parent_op()
    return op


def _construct(analysis_cls: Type, anchor: Operation) -> Any:
    """Instantiate ``analysis_cls`` for ``anchor``.

    Analyses follow the single-argument convention (``DominanceInfo(op)``);
    classes whose constructor takes no required parameters (e.g.
    ``SYCLAliasAnalysis``) are built without the anchor.
    """
    try:
        signature = inspect.signature(analysis_cls)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return analysis_cls(anchor)
    positional = [
        p for p in signature.parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if positional:
        return analysis_cls(anchor)
    return analysis_cls()


class AnalysisManager:
    """Constructs, caches and invalidates analyses for pass pipelines."""

    def __init__(self):
        #: ``(analysis class, weak reference to the anchor)`` -> entry.
        #: Weak, so an entry does not keep an anchor alive by itself;
        #: and since most analyses do reference their anchor,
        #: :meth:`invalidate` also drops entries whose anchor left its
        #: tree (an erased loop), which no lookup can reach any more.
        self._entries: Dict[Tuple[Type, "weakref.ref[Operation]"],
                            _Entry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Analysis class names a compile-cache hit reported still valid.
        self.carried: List[str] = []

    # -- queries -----------------------------------------------------------
    def get(self, analysis_cls: Type, anchor: Operation) -> Any:
        """The (cached) ``analysis_cls`` result anchored at ``anchor``."""
        analysis = self.get_cached(analysis_cls, anchor)
        with self._lock:
            if analysis is not None:
                self.hits += 1
                return analysis
            self.misses += 1
        stamp = version_stamp(anchor)
        analysis = _construct(analysis_cls, anchor)
        with self._lock:
            self._entries[(analysis_cls, weakref.ref(anchor))] = _Entry(
                analysis, stamp, weakref.ref(_root(anchor)))
        return analysis

    def get_cached(self, analysis_cls: Type,
                   anchor: Operation) -> Optional[Any]:
        """The cached result if present and fresh — nothing around its
        anchor edited since, and an anchor no stamp vouches for never
        is; never constructs."""
        with self._lock:
            entry = self._entries.get((analysis_cls, weakref.ref(anchor)))
        if entry is None:
            return None
        stamp = version_stamp(anchor)
        if stamp is None or entry.stamp != stamp:
            return None
        return entry.analysis

    # -- invalidation ------------------------------------------------------
    def invalidate(self, anchor: Operation, preserved=()) -> int:
        """Evict analyses made stale by a pass that ran on ``anchor``.

        Evicts entries anchored at ``anchor``, at any of its ancestors
        (their whole-tree view includes the mutated subtree) and at any of
        its descendants.  ``preserved`` is an iterable of analysis classes
        to keep, or :data:`ALL_ANALYSES` to keep everything.  Entries
        whose anchor is gone or left the tree it was cached in go too,
        preserved or not: no lookup reaches them, and they would pin
        their module.
        """
        if preserved is ALL_ANALYSES:
            return 0
        preserved_classes = tuple(preserved)
        evicted = 0
        with self._lock:
            for key, entry in list(self._entries.items()):
                analysis_cls, ref = key
                cached = ref()
                if cached is None or _root(cached) is not entry.root() or (
                        analysis_cls not in preserved_classes
                        and self._related(cached, anchor)):
                    del self._entries[key]
                    evicted += 1
            self.invalidations += evicted
        return evicted

    @staticmethod
    def _related(cached_anchor: Operation, mutated: Operation) -> bool:
        if cached_anchor is mutated:
            return True
        return mutated.is_ancestor_of(cached_anchor) or \
            cached_anchor.is_ancestor_of(mutated)

    # -- compile-cache interplay ------------------------------------------
    def note_carried(self, analysis_names) -> None:
        """Record analyses a compile-cache hit reported as still valid."""
        with self._lock:
            self.carried.extend(analysis_names)

    def preserved_names(self) -> List[str]:
        """Class names of every currently cached (live) analysis."""
        with self._lock:
            return sorted({cls.__name__ for cls, _ in self._entries})

    def preserved_names_for(self, root: Operation) -> List[str]:
        """Class names of cached analyses anchored within ``root``'s tree."""
        with self._lock:
            anchored = [(cls, ref()) for cls, ref in self._entries]
        return sorted({cls.__name__ for cls, anchor in anchored
                       if anchor is not None and root.is_ancestor_of(anchor)})

    # -- reporting ---------------------------------------------------------
    def describe(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._entries),
            }

    def __repr__(self) -> str:
        stats = self.describe()
        return (f"<AnalysisManager hits={stats['hits']} "
                f"misses={stats['misses']} "
                f"invalidations={stats['invalidations']} "
                f"entries={stats['entries']}>")


# ---------------------------------------------------------------------------
# The per-thread current manager
# ---------------------------------------------------------------------------

_TLS = threading.local()


def current_analysis_manager() -> Optional[AnalysisManager]:
    """The manager installed for this thread's pipeline run, if any."""
    return getattr(_TLS, "manager", None)


@contextmanager
def analysis_scope(manager: Optional[AnalysisManager]) -> Iterator[
        Optional[AnalysisManager]]:
    """Install ``manager`` as this thread's current analysis manager."""
    previous = getattr(_TLS, "manager", None)
    _TLS.manager = manager
    try:
        yield manager
    finally:
        _TLS.manager = previous


def get_analysis(analysis_cls: Type, anchor: Operation) -> Any:
    """Request an analysis through the current manager, or build directly.

    The helper passes use (via ``Pass.get_analysis``): inside a pipeline
    run results are cached and invalidation-tracked; outside (unit tests,
    ad-hoc scripts) it falls back to direct construction.
    """
    manager = current_analysis_manager()
    if manager is not None:
        return manager.get(analysis_cls, anchor)
    return _construct(analysis_cls, anchor)
