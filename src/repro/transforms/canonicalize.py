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
    Operation,
    Trait,
    Value,
    get_memory_effects,
    has_trait,
)
from ..ir.interfaces import EFFECT_FREE_TRAITS
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

    def can_rewrite(self, op_class: type) -> bool:
        """Whether :func:`fold_operation` or :func:`_simplify_identities`
        can rewrite some op of ``op_class``: not a constant, and a
        ``fold`` override, an ``IDENTITY`` or a select."""
        if issubclass(op_class, arith.ConstantOp):
            return False
        return op_class.fold is not Operation.fold \
            or getattr(op_class, "IDENTITY", None) is not None \
            or issubclass(op_class, arith.SelectOp)

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


#: Ops with one of these traits are never trivially dead.
_KEPT_TRAITS = Trait.TERMINATOR.bit | Trait.SYMBOL.bit


def _is_trivially_dead(op: Operation) -> bool:
    # Cheapest checks first: most visited ops are live, so the common exit
    # is "a result has uses" — reached without any trait/effect queries.
    results = op.results
    if not results or op.parent is None:
        return False
    for result in results:
        if result._uses:
            return False
    if op.regions or op._trait_mask_ & _KEPT_TRAITS:
        return False
    if not op._HAS_EFFECTS:
        return bool(op._trait_mask_ & EFFECT_FREE_TRAITS)
    # Only reads and allocations: unobservable when the results are unused.
    effects = op.memory_effects()
    return effects is not None and all(
        e.kind in (EffectKind.READ, EffectKind.ALLOCATE) for e in effects)


def erase_dead_ops(root: Operation) -> int:
    """Remove operations that are dead.

    An operation is dead when none of its results are used and it has no
    observable effect: it is side-effect free, or its only effects are reads
    and allocations (a read whose result is unused is unobservable).  A
    local allocation that is only ever written is dead together with its
    writers.

    Worklist-based: erasing an operation enqueues the defining operations
    of its operands, so dead chains and groups are collected in one pass
    over the module plus O(ops erased).
    """
    return _erase_dead(list(root.walk(include_self=False)))


def _erase_dead(worklist: List[Optional[Operation]]) -> int:
    """Erase what is dead among ``worklist`` and what that leaves dead.

    Each op is erased when it is trivially dead, or together with its
    writers when it is a write-only allocation.  An erasure can only make
    the ops it used (its feeders) dead, so they are the only ops looked at
    again: the result is the fixed point a re-walk of the whole function
    after every erasure would reach, without the re-walks.  ``worklist``
    must hold every op that may be dead already; it is consumed.
    """
    erased = 0
    while worklist:
        op = worklist.pop()
        if op is None or op.parent is None:
            continue  # a block argument's slot, or erased meanwhile
        group = _write_only_group(op)
        if not group:
            if not _is_trivially_dead(op):
                if _is_unused_writer(op):
                    # The allocations it writes may be write-only now.
                    worklist.extend(_feeders(op))
                continue
            group = [op]
        for dead in group:
            worklist.extend(_feeders(dead))
            dead.erase()
        erased += len(group)
    return erased


def _feeders(op: Operation) -> List[Optional[Operation]]:
    return [operand.defining_op() for operand in op.operands]


def _is_unused_writer(op: Operation) -> bool:
    """An op with effects and results, none of them used."""
    results = op.results
    if not results or not op._HAS_EFFECTS:
        return False
    for result in results:
        if result._uses:
            return False
    return True


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
        feeders = _feeders(op)
        op.erase()
        erased += 1
        for feeder in feeders:
            if feeder is not None and id(feeder) not in seen:
                seen.add(id(feeder))
                worklist.append(feeder)
    return erased


def _write_only_group(op: Operation) -> List[Operation]:
    """``op``'s writers and then ``op``, if it is a local allocation that
    is only ever written and never read; otherwise empty.

    This cleans up the id objects left behind when an accessor subscript is
    rewritten (e.g. by Loop Internalization): the ``memref.alloca`` and the
    ``sycl.constructor`` writing it have no observable effect once nothing
    reads the id.
    """
    # Only an op with a result and declared effects can allocate; asking
    # every op for its effects was most of a sweep's cost.
    if not op.results or not op._HAS_EFFECTS:
        return []
    allocation = op.results[0]
    writers = allocation.users()
    if not writers:
        return []
    # Uses first: most ops asked are loads, whose users are used.
    for user in writers:
        for result in user.results:
            if result._uses:
                return []
    effects = get_memory_effects(op)
    if not effects or \
            not all(e.kind == EffectKind.ALLOCATE for e in effects):
        return []
    for user in writers:
        user_effects = get_memory_effects(user)
        if user_effects is None:
            return []
        for effect in user_effects:
            if effect.kind == EffectKind.READ and effect.value is allocation:
                return []
            if effect.kind == EffectKind.WRITE and \
                    effect.value is not allocation:
                return []
    writers.append(op)
    return writers


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
        group = _write_only_group(op)
        feeders: List[Optional[Operation]] = []
        for dead in group:
            feeders.extend(_feeders(dead))
            dead.erase()
        erased += len(group)
        for feeder in (feeders if group else [op]):
            if feeder is not None and id(feeder) not in seen:
                seen.add(id(feeder))
                worklist.append(feeder)
    return erased + _drain_trivially_dead(worklist, seen)


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
        # cannot see are collected, from the driver's seed walk: only a
        # pattern inserts ops, and they insert constants.
        erased_in_driver = [0]
        ops = list(function.walk(include_self=False))

        def prune(op: Operation) -> bool:
            if _is_trivially_dead(op):
                erased_in_driver[0] += 1
                return True
            return False

        apply_patterns_greedily(
            function, patterns,
            max_iterations=self.options.max_iterations,
            prune_dead=prune if self.options.prune_dead else None,
            seed=ops)
        if not self.options.prune_dead:
            return
        erased = erased_in_driver[0] + _erase_dead(
            [op for op in ops if op.results and op.parent is not None
             and op._HAS_EFFECTS])
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
