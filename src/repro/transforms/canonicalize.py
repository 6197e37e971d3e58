"""Canonicalization: constant folding, algebraic simplification and DCE.

Folding and identity simplification run as rewrite patterns on the
worklist-driven greedy driver (:mod:`repro.transforms.rewrite`), and dead
code elimination is itself worklist-based: erasing an operation re-enqueues
the defining operations of its operands, so a dead chain of N operations
costs O(N) instead of N full-module sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir import (
    Attribute,
    BoolAttr,
    EffectKind,
    FloatAttr,
    IntegerAttr,
    MemoryEffectsInterface,
    Operation,
    Trait,
    Value,
    get_memory_effects,
    has_trait,
    is_side_effect_free,
)
from ..dialects import arith
from ..dialects.func import FuncOp
from .pass_manager import (
    CompileReport,
    FunctionPass,
    PassOptions,
    register_pass,
)
from .rewrite import (
    MAX_PATTERN_ITERATIONS,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
)


def _materialize_constant(attr: Attribute, type_) -> Optional[Operation]:
    if isinstance(attr, (IntegerAttr, FloatAttr)):
        return arith.ConstantOp.build(attr.value, type_)
    if isinstance(attr, BoolAttr):
        return arith.ConstantOp.build(attr.value, type_)
    return None


def _standalone_rewriter(op: Operation) -> PatternRewriter:
    rewriter = PatternRewriter()
    rewriter.set_insertion_point_before(op)
    return rewriter


def fold_operation(op: Operation,
                   rewriter: Optional[PatternRewriter] = None) -> bool:
    """Try to fold ``op``; returns True if it was replaced."""
    if isinstance(op, arith.ConstantOp):
        return False
    folded = op.fold()
    if folded is None:
        return False
    # Materialize every constant before inserting any, so a result the
    # fold hook produced but we cannot materialize does not leave earlier
    # constants orphaned in the block.
    replacements: List[Value] = []
    pending: List[Operation] = []
    for result, item in zip(op.results, folded):
        if isinstance(item, Value):
            replacements.append(item)
            continue
        constant = _materialize_constant(item, result.type)
        if constant is None:
            return False
        pending.append(constant)
        replacements.append(constant.result)
    if rewriter is None:
        rewriter = _standalone_rewriter(op)
    for constant in pending:
        rewriter.insert(constant)
    rewriter.replace_op(op, replacements)
    return True


def _simplify_identities(op: Operation,
                         rewriter: Optional[PatternRewriter] = None) -> bool:
    """Algebraic identities: ``x + 0``, ``x * 1``, ``x * 0``, ``select c,a,a``."""
    if isinstance(op, arith.SelectOp):
        if op.operands[1] is op.operands[2]:
            if rewriter is None:
                rewriter = _standalone_rewriter(op)
            rewriter.replace_op(op, [op.operands[1]])
            return True
        return False
    identity = getattr(type(op), "IDENTITY", None)
    if identity is None or len(op.operands) != 2:
        return False
    lhs, rhs = op.operands
    rhs_const = arith.constant_value_of(rhs)
    lhs_const = arith.constant_value_of(lhs)
    commutative = has_trait(op, Trait.COMMUTATIVE)
    if rhs_const is not None and rhs_const == identity:
        if rewriter is None:
            rewriter = _standalone_rewriter(op)
        rewriter.replace_op(op, [lhs])
        return True
    if commutative and lhs_const is not None and lhs_const == identity:
        if rewriter is None:
            rewriter = _standalone_rewriter(op)
        rewriter.replace_op(op, [rhs])
        return True
    # x * 0 == 0 (integers only, to avoid NaN pitfalls with floats).
    if op.name == "arith.muli" and (rhs_const == 0 or lhs_const == 0):
        if rewriter is None:
            rewriter = _standalone_rewriter(op)
        zero = rewriter.insert(arith.ConstantOp.build(0, op.results[0].type))
        rewriter.replace_op(op, [zero.result])
        return True
    return False


class _CanonicalizePattern(RewritePattern):
    """Constant folding + algebraic identities as one worklist pattern.

    Fused so the driver dispatches once per visited op; fold is tried
    first, matching the old sweep's application order.
    """

    def __init__(self, report: Optional[CompileReport] = None,
                 pass_name: str = "canonicalize"):
        self.report = report
        self.pass_name = pass_name

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        if fold_operation(op, rewriter):
            if self.report is not None:
                self.report.add_statistic(self.pass_name, "ops_folded")
            return True
        if _simplify_identities(op, rewriter):
            if self.report is not None:
                self.report.add_statistic(self.pass_name,
                                          "identities_simplified")
            return True
        return False


def _is_trivially_dead(op: Operation) -> bool:
    # Cheapest checks first: most visited ops are live, so the common exit
    # is "a result has uses" — reached without any trait/effect queries.
    results = op.results
    if not results or op.parent is None:
        return False
    for result in results:
        if result._uses:
            return False
    if op.regions or has_trait(op, Trait.TERMINATOR) or \
            has_trait(op, Trait.SYMBOL):
        return False
    return is_side_effect_free(op) or _effects_are_unobservable(op)


def erase_dead_ops(root: Operation) -> int:
    """Remove operations that are dead.

    An operation is dead when none of its results are used and it has no
    observable effect: it is side-effect free, or its only effects are reads
    and allocations (a read whose result is unused is unobservable).

    Worklist-based: erasing an operation enqueues the defining operations
    of its operands, so dead chains are collected in one pass over the
    module plus O(ops erased).
    """
    worklist: List[Operation] = list(root.walk(include_self=False))
    seen = {id(op) for op in worklist}
    erased = _drain_trivially_dead(worklist, seen)
    return erased + _erase_allocation_groups(root)


def _drain_trivially_dead(worklist: List[Operation], seen: set) -> int:
    """Erase every trivially dead op reachable from ``worklist``.

    Erasing an op enqueues the defining ops of its operands, so dead
    chains collapse in O(chain length).
    """
    erased = 0
    while worklist:
        op = worklist.pop()
        seen.discard(id(op))
        if not _is_trivially_dead(op):
            continue
        feeders = [operand.defining_op() for operand in op.operands]
        op.erase()
        erased += 1
        for feeder in feeders:
            if feeder is not None and id(feeder) not in seen:
                seen.add(id(feeder))
                worklist.append(feeder)
    return erased


def _erase_allocation_groups(root: Operation) -> int:
    """Erase write-only allocation groups until none remain.

    Write-only local allocations are dead as a group (the allocation plus
    its writers) but not *trivially* dead, so they need their own sweep;
    each group erased can expose newly dead feeders (drained without a
    full re-seed), and erasing those can in turn make further allocations
    write-only — hence the loop.  Each round erases at least one op or
    stops, so this reaches the same fixed point the old while-changed
    sweep loop guaranteed.
    """
    erased = 0
    worklist: List[Operation] = []
    seen: set = set()
    while True:
        newly_dead = _erase_write_only_allocations(root)
        if not newly_dead:
            return erased
        erased += len(newly_dead)
        _enqueue_unseen(newly_dead, worklist, seen)
        erased += _drain_trivially_dead(worklist, seen)


def _erase_write_only_allocations(root: Operation) -> List[List[Operation]]:
    """Erase local allocations that are only ever written, never read.

    This cleans up the id objects left behind when an accessor subscript is
    rewritten (e.g. by Loop Internalization): the ``memref.alloca`` and the
    ``sycl.constructor`` writing it have no observable effect once nothing
    reads the id.

    Returns, for each erased operation, the defining ops of its operands so
    the caller can re-check them for deadness.
    """
    feeders: List[List[Operation]] = []
    for op in root.walk(include_self=False):
        # Only an op with a result and declared effects can allocate;
        # asking every op for its effects was most of a sweep's cost.
        if op.parent is None or not op.results or \
                not isinstance(op, MemoryEffectsInterface):
            continue
        feeders.extend(_erase_if_write_only_allocation(op))
    return feeders


def _erase_if_write_only_allocation(op: Operation) -> List[List[Operation]]:
    """Erase ``op`` (which has a result) and its writers if it is a
    write-only allocation.

    Returns the feeders of what was erased (empty when nothing was).
    """
    effects = get_memory_effects(op)
    if not effects or \
            not all(e.kind == EffectKind.ALLOCATE for e in effects):
        return []
    allocation = op.results[0]
    writers = allocation.users()
    if not writers:
        return []
    for user in writers:
        if user.has_uses():
            return []
        user_effects = get_memory_effects(user)
        if user_effects is None:
            return []
        for effect in user_effects:
            if effect.kind == EffectKind.READ and effect.value is allocation:
                return []
            if effect.kind == EffectKind.WRITE and \
                    effect.value is not allocation:
                return []
    feeders: List[List[Operation]] = []
    for writer in writers:
        feeders.append([operand.defining_op() for operand in writer.operands])
        writer.erase()
    feeders.append([operand.defining_op() for operand in op.operands])
    op.erase()
    return feeders


def erase_orphaned_ops(candidates: List[Optional[Operation]]) -> int:
    """Erase those of ``candidates`` a rewrite left dead, and their feeders.

    The targeted form of :func:`erase_dead_ops` for a rewrite that knows
    which ops it may have orphaned (``None`` entries — values that were
    block arguments — are skipped): each candidate is erased when it is
    trivially dead or a write-only allocation group, dead chains behind it
    collapse as usual, and no other op of the function is visited.
    """
    erased = 0
    worklist: List[Operation] = []
    seen: set = set()
    for op in candidates:
        if op is None or op.parent is None:
            continue  # no op, or it went with an earlier candidate
        group = _erase_if_write_only_allocation(op) \
            if op.results and isinstance(op, MemoryEffectsInterface) else []
        erased += len(group)
        _enqueue_unseen(group or [[op]], worklist, seen)
    return erased + _drain_trivially_dead(worklist, seen)


def _enqueue_unseen(groups: List[List[Operation]],
                    worklist: List[Operation], seen: set) -> None:
    for group in groups:
        for op in group:
            if op is not None and id(op) not in seen:
                seen.add(id(op))
                worklist.append(op)


def _effects_are_unobservable(op: Operation) -> bool:
    """Only reads / allocations: removable when the results are unused."""
    effects = get_memory_effects(op)
    if effects is None:
        return False
    return bool(effects) and all(
        e.kind in (EffectKind.READ, EffectKind.ALLOCATE) for e in effects)


@register_pass
class CanonicalizePass(FunctionPass):
    """Fold constants, simplify identities and erase dead pure operations."""

    NAME = "canonicalize"

    STATISTICS = (
        ("ops_folded", "operations replaced by folded constants"),
        ("identities_simplified", "algebraic identities rewritten away"),
        ("dead_ops_erased", "trivially dead operations removed"),
    )

    @dataclass
    class Options(PassOptions):
        #: Convergence bound forwarded to the greedy rewrite driver.
        max_iterations: int = MAX_PATTERN_ITERATIONS
        #: Fold dead-code elimination into the rewrite drain.
        prune_dead: bool = True

    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        patterns = [_CanonicalizePattern(report, self.NAME)]
        # One driver run reaches the fold/simplify/DCE fixed point: the
        # worklist re-enqueues affected ops until quiescent, and trivially
        # dead ops are pruned during the same drain.  Folding depends only
        # on operands, so no restart loop is needed; afterwards only the
        # write-only allocation groups the trivial-deadness predicate
        # cannot see are collected (no full-module DCE re-seed).
        erased_in_driver = [0]

        def prune(op: Operation) -> bool:
            if _is_trivially_dead(op):
                erased_in_driver[0] += 1
                return True
            return False

        apply_patterns_greedily(
            function, patterns,
            max_iterations=self.options.max_iterations,
            prune_dead=prune if self.options.prune_dead else None)
        if not self.options.prune_dead:
            return
        erased = erased_in_driver[0] + _erase_allocation_groups(function)
        if erased:
            report.add_statistic(self.NAME, "dead_ops_erased", erased)


@register_pass
class DCEPass(FunctionPass):
    """Standalone dead-code elimination."""

    NAME = "dce"

    STATISTICS = (
        ("dead_ops_erased", "dead operations (and allocation groups) removed"),
    )

    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        erased = erase_dead_ops(function)
        if erased:
            report.add_statistic(self.NAME, "dead_ops_erased", erased)
