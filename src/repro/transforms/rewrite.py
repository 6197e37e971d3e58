"""Rewrite pattern infrastructure (worklist-driven greedy application).

A small analogue of MLIR's greedy pattern rewrite driver: patterns match a
single operation and use the :class:`PatternRewriter` to mutate the IR.
Instead of restarting a whole-module sweep after every change, the driver
keeps a worklist of operations to visit.  The rewriter notifies the driver
about every replace/erase/insert, so after a rewrite only the operations
the change could affect are re-enqueued:

* the root itself after an in-place update (its match state changed);
* users of the results of a replaced/updated operation (their operands
  changed or may now fold);
* defining operations of the operands of an erased operation (they may
  have become trivially dead);
* newly inserted operations (never matched before).

Cost per change is therefore O(affected ops), not O(module).  Patterns are
filtered once per op class, by ``ROOT_OP`` and by
:meth:`RewritePattern.can_rewrite`, so each visit tries only the patterns
that can match that operation, in the order the patterns were supplied; an
op no pattern can rewrite costs no dispatch at all.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..ir import Builder, InsertionPoint, IRError, Operation, Value


class _Worklist:
    """LIFO worklist with O(1) push, membership and removal.

    Removal is lazy: an op leaves the membership set and its stale stack
    slot is skipped when popped.  The driver loop pops inline.
    """

    __slots__ = ("_stack", "_live")

    def __init__(self):
        self._stack: List[Operation] = []
        self._live: Set[Operation] = set()

    def push(self, op: Operation) -> None:
        if op in self._live:
            return
        self._live.add(op)
        self._stack.append(op)

    def remove(self, op: Operation) -> None:
        self._live.discard(op)


class _PatternIndex:
    """The patterns that may rewrite an op, in supplied order, filtered
    once per op class: by ``ROOT_OP`` and by :meth:`RewritePattern.
    can_rewrite`.  Unregistered ops share the base class, so theirs are
    filtered once per name."""

    def __init__(self, patterns: Sequence["RewritePattern"]):
        self._patterns = list(patterns)
        #: op class -> its patterns (read inline by the driver loop).
        self.by_class: Dict[type, List[RewritePattern]] = {}
        self._by_name: Dict[str, List[RewritePattern]] = {}

    def for_op(self, op: Operation) -> List["RewritePattern"]:
        op_class = op.__class__
        name = op.OPERATION_NAME
        table, key = (self._by_name, name) if op_class is Operation \
            else (self.by_class, op_class)
        found = table.get(key)
        if found is None:
            found = table[key] = [
                pattern for pattern in self._patterns
                if pattern.ROOT_OP in (None, name)
                and pattern.can_rewrite(op_class)]
        return found


class PatternRewriter(Builder):
    """Builder with replace/erase notifications used by patterns.

    When attached to a worklist driver, every mutation made through the
    rewriter re-enqueues exactly the operations the change could affect.
    Patterns must mutate the IR through the rewriter (not through raw
    ``Block`` methods) for the driver to see the changes.
    """

    def __init__(self, driver: Optional["_WorklistDriver"] = None):
        super().__init__()
        self.changed = False
        self._driver = driver

    # -- driver notifications ------------------------------------------------
    def _notify_inserted(self, op: Operation) -> None:
        if self._driver is not None:
            self._driver.notify_inserted(op)

    def _notify_replacing(self, op: Operation) -> None:
        if self._driver is not None:
            self._driver.notify_replacing(op)

    def _notify_erasing(self, op: Operation) -> None:
        if self._driver is not None:
            self._driver.notify_erasing(op)

    def _retarget_point_past(self, op: Operation) -> None:
        """Keep the insertion point valid when its anchor op goes away.

        Anchored points (unlike the old integer indices) dangle when the
        anchor is erased; re-anchoring on the anchor's successor preserves
        the old behaviour of "keep inserting at that position" for
        patterns that replace their root and then insert more ops.
        """
        point = self.insertion_point
        if point is not None:
            point.advance_past(op)

    # -- mutation API --------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        inserted = super().insert(op)
        self._notify_inserted(inserted)
        return inserted

    def replace_op(self, op: Operation, new_values: Sequence[Value]) -> None:
        self._notify_replacing(op)
        op.replace_all_uses_with(list(new_values))
        self._notify_erasing(op)
        self._retarget_point_past(op)
        op.erase()
        self.changed = True

    def erase_op(self, op: Operation) -> None:
        self._notify_erasing(op)
        self._retarget_point_past(op)
        op.erase()
        self.changed = True

    def update_operand(self, op: Operation, index: int, value: Value) -> None:
        """Redirect operand ``index`` of ``op`` to ``value``.

        Patterns must use this (not raw ``Operation.set_operand``) for
        in-place operand updates: the driver revisits the producer of the
        dropped operand, which may have just become dead.
        """
        old = op.operands[index]
        op.set_operand(index, value)
        if self._driver is not None and old is not value:
            defining = old.defining_op()
            if defining is not None:
                self._driver.worklist.push(defining)
        self.changed = True

    def notify_changed(self) -> None:
        self.changed = True


class RewritePattern:
    """Base class for rewrite patterns."""

    #: Optional operation name filter; None means "try on every operation".
    ROOT_OP: Optional[str] = None

    def can_rewrite(self, op_class: type) -> bool:
        """Whether this pattern may apply to some op of ``op_class``.

        Asked once per class (per name for unregistered ops); an op whose
        class no pattern may rewrite costs the driver neither a dispatch
        nor an insertion-point move.
        """
        return True

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:  # pragma: no cover
        """Return True if the pattern applied."""
        raise NotImplementedError


#: Convergence bound: the driver allows ``max_iterations`` rewrites per
#: operation initially under the root before declaring non-convergence,
#: mirroring the old restart-sweep bound of ``max_iterations`` sweeps.
MAX_PATTERN_ITERATIONS = 32


class NonConvergenceWarning(RuntimeWarning):
    """Emitted when greedy pattern application hits its rewrite bound."""


class _WorklistDriver:
    """Owns the worklist and receives mutation notifications."""

    def __init__(self, patterns: Sequence[RewritePattern]):
        self.worklist = _Worklist()
        self.index = _PatternIndex(patterns)

    # -- notifications -------------------------------------------------------
    def notify_inserted(self, op: Operation) -> None:
        if op.regions:
            for nested in op.walk(include_self=False):
                self.worklist.push(nested)
        self.worklist.push(op)

    def notify_replacing(self, op: Operation) -> None:
        # The users of the old results are about to see new operands.
        for result in op.results:
            for user in result.users():
                self.worklist.push(user)

    def notify_erasing(self, op: Operation) -> None:
        # Defining ops of the operands may become trivially dead.  Ops
        # nested in the erased op's regions also drop their operand uses,
        # so values defined *outside* the subtree can become dead too;
        # their producers must be revisited as well (producers inside the
        # subtree get pushed harmlessly — they are skipped on pop once
        # their parent link is cleared by the erase).
        for operand in op.operands:
            defining = operand.defining_op()
            if defining is not None:
                self.worklist.push(defining)
        if op.regions:
            for nested in op.walk(include_self=False):
                for operand in nested.operands:
                    defining = operand.defining_op()
                    if defining is not None:
                        self.worklist.push(defining)
        self.worklist.remove(op)

    def push_root_and_users(self, op: Operation) -> None:
        """After an in-place update: revisit the op and its users."""
        self.worklist.push(op)
        for result in op.results:
            for user in result.users():
                self.worklist.push(user)


def apply_patterns_greedily(root: Operation,
                            patterns: Iterable[RewritePattern],
                            max_iterations: int = MAX_PATTERN_ITERATIONS,
                            on_nonconvergence: str = "warn",
                            prune_dead: Optional[
                                Callable[[Operation], bool]] = None,
                            seed: Optional[List[Operation]] = None) -> bool:
    """Apply ``patterns`` to all operations nested under ``root``.

    Returns True if the IR changed.  The worklist keeps draining until no
    pattern applies anywhere, so patterns can build on each other's results
    exactly like the old restart-sweep driver, at O(changes) instead of
    O(module) re-matching cost per change.

    ``prune_dead`` (optional) is a predicate asked, before pattern
    matching, about each visited operation that has at least one result
    and no used result (an op with no result, or a used one, is never
    dead); when it returns True the driver erases the operation and
    re-enqueues the defining ops of its operands, folding dead-code
    elimination into the same worklist drain (MLIR's greedy driver does
    the same).  The predicate must only approve operations that are safe
    to erase.

    ``seed`` (optional) is the pre-order list of every operation under
    ``root``, for a caller that needs the walk itself afterwards.  It
    enters the worklist reversed, so the LIFO pops visit the module
    top-down, matching the old sweep's application order.

    A misbehaving pattern set (e.g. two patterns undoing each other) would
    keep the worklist busy forever; after ``max_iterations`` rewrites per
    initially present operation the driver gives up.  Depending on
    ``on_nonconvergence`` this raises ``IRError`` (``"error"``) or emits a
    :class:`NonConvergenceWarning` (``"warn"``, the default) instead of
    silently returning possibly-unnormalized IR.
    """
    if on_nonconvergence not in ("warn", "error"):
        raise ValueError(
            f"on_nonconvergence must be 'warn' or 'error', "
            f"got {on_nonconvergence!r}")
    pattern_list: List[RewritePattern] = list(patterns)
    driver = _WorklistDriver(pattern_list)
    if seed is None:
        seed = list(root.walk(include_self=False))
    stack = driver.worklist._stack
    live = driver.worklist._live
    stack.extend(reversed(seed))
    live.update(stack)
    by_class = driver.index.by_class
    max_rewrites = max(1, len(seed)) * max_iterations
    rewriter = PatternRewriter(driver)
    # One insertion point object re-anchored per visit, instead of a fresh
    # allocation for every (op, pattern) attempt.
    point: Optional[InsertionPoint] = None
    changed_any = False
    num_rewrites = 0
    converged = True
    while stack:
        op = stack.pop()
        if op not in live:
            continue  # removed, or its live slot is higher up
        live.discard(op)
        if op.parent is None:
            continue  # erased after being enqueued
        if prune_dead is not None and op.results:
            for result in op.results:
                if result._uses:
                    break
            else:
                if prune_dead(op):
                    driver.notify_erasing(op)
                    op.erase()
                    changed_any = True
                    continue
        candidates = by_class.get(op.__class__)
        if candidates is None:
            candidates = driver.index.for_op(op)
        if not candidates:
            continue
        if point is None:
            point = InsertionPoint.before(op)
        else:
            point.move_before(op)
        rewriter.insertion_point = point
        for pattern in candidates:
            try:
                applied = pattern.match_and_rewrite(op, rewriter)
            except IRError:
                applied = False
            if applied:
                changed_any = True
                num_rewrites += 1
                if op.parent is not None:
                    driver.push_root_and_users(op)
                break
        if num_rewrites > max_rewrites:
            converged = False
            break
    if not converged:
        names = ", ".join(sorted({type(p).__name__ for p in pattern_list}))
        message = (
            f"greedy pattern application on '{root.name}' did not converge "
            f"within {max_rewrites} rewrites ({max_iterations} per "
            f"initially-seeded op); the IR may not be fully "
            f"normalized (patterns: {names})")
        if on_nonconvergence == "error":
            raise IRError(message)
        warnings.warn(message, NonConvergenceWarning, stacklevel=2)
    return changed_any
