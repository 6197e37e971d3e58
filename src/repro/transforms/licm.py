"""SYCL-aware Loop Invariant Code Motion (paper, Section VI-A).

The upstream MLIR utility only hoists operations that are free of memory
effects.  The LICM implemented here additionally hoists operations that read
or write memory when the SYCL-specialized alias analysis can prove the loop
contains no conflicting access:

* read-only operations are hoisted when nothing in the loop may write to the
  locations they read;
* allocations are hoisted when their operands are invariant;
* write operations (e.g. ``sycl.constructor`` building an id from invariant
  components) are hoisted when nothing else in the loop reads or writes a
  location that may alias the written one.

Hoisting side-effecting operations out of a loop is only sound when the loop
executes at least once, so the pass hoists them only out of a loop whose
constant bounds prove it; a loop that may run zero times keeps them, and
keeps the pure operations that may trap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import (
    EffectKind,
    Operation,
    Trait,
    Value,
    get_memory_effects,
    has_trait,
    is_side_effect_free,
)
from ..dialects import affine as affine_dialect
from ..dialects import scf as scf_dialect
from ..dialects.func import FuncOp
from ..analysis.alias import AliasAnalysis
from ..analysis.sycl_alias import SYCLAliasAnalysis
from .pass_manager import (
    CompileReport,
    FunctionPass,
    PassOptions,
    register_pass,
    register_pass_alias,
)

_LOOP_TYPES = (affine_dialect.AffineForOp, scf_dialect.ForOp)

#: Textual names of the alias analyses a spec can select.
ALIAS_CHOICES = ("sycl", "generic", "runtime-checked")


def make_alias_analysis(name: str) -> AliasAnalysis:
    """Instantiate the alias analysis selected by an ``alias=`` option."""
    if name == "sycl":
        return SYCLAliasAnalysis()
    if name == "generic":
        return AliasAnalysis()
    if name == "runtime-checked":
        from .specialization import RuntimeCheckedAliasAnalysis

        return RuntimeCheckedAliasAnalysis()
    raise ValueError(
        f"unknown alias analysis {name!r}; expected one of "
        f"{', '.join(ALIAS_CHOICES)}")


def _loop_trip_count(loop: Operation) -> Optional[int]:
    if isinstance(loop, affine_dialect.AffineForOp):
        return loop.constant_trip_count()
    if isinstance(loop, scf_dialect.ForOp):
        return loop.constant_trip_count()
    return None


#: The effects a hoisting candidate is checked against.
_ACCESSES = (EffectKind.READ, EffectKind.WRITE)


class _BodyEffects:
    """What one loop body reads and writes, summarised once per loop.

    ``writes`` and ``reads`` pair each body op with a location it (or an
    op nested in it) writes or reads, ``None`` meaning anywhere;
    ``unknown`` lists the body ops with an op of unknown effects in their
    tree; ``freed`` the allocations the body frees.  Hoisting only moves
    ops out of the body, so an entry holds for as long as its op is still
    in it.  ``conflicts`` memoizes the alias verdict of each value pair
    for the same span.
    """

    __slots__ = ("body", "writes", "reads", "unknown", "freed", "alias",
                 "verdicts")

    def __init__(self, loop: Operation, alias: AliasAnalysis):
        self.body = loop.loop_body()
        self.writes: List[Tuple[Operation, Optional[Value]]] = []
        self.reads: List[Tuple[Operation, Optional[Value]]] = []
        self.unknown: List[Operation] = []
        self.freed: List[Value] = []
        self.alias = alias
        self.verdicts: Dict[Tuple[Value, Value], bool] = {}
        for op in self.body.ops_without_terminator():
            for nested in op.walk():
                effects = get_memory_effects(nested)
                if effects is None:
                    self.unknown.append(op)
                    break
                for effect in effects:
                    if effect.kind == EffectKind.WRITE:
                        self.writes.append((op, effect.value))
                    elif effect.kind == EffectKind.READ:
                        self.reads.append((op, effect.value))
                    elif effect.kind == EffectKind.FREE:
                        self.freed.append(effect.value)

    def conflicts(self, value: Optional[Value],
                  targets: List[Value]) -> bool:
        """May ``value`` alias one of ``targets``?"""
        if value is None:
            return True
        verdicts = self.verdicts
        for target in targets:
            key = (value, target)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = self.alias.may_alias(value, target)
            if verdict:
                return True
        return False


@register_pass
class LoopInvariantCodeMotion(FunctionPass):
    """Hoists loop-invariant operations, including memory accesses."""

    NAME = "sycl-licm"

    STATISTICS = (
        ("ops_hoisted", "loop-invariant operations moved out of loops"),
    )

    @dataclass
    class Options(PassOptions):
        #: Alias analysis consulted when hoisting memory accesses.
        alias: str = field(default="sycl",
                           metadata={"choices": ALIAS_CHOICES})

    def __init__(self, options: Optional[PassOptions] = None):
        super().__init__(options)
        #: Built once from the ``alias=`` option: the analyses are
        #: stateless, so one instance serves every function and worker.
        self.alias_analysis = make_alias_analysis(self.options.alias)

    # ------------------------------------------------------------------
    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        loops = [op for op in function.walk() if isinstance(op, _LOOP_TYPES)]
        # Innermost loops first so invariants bubble outwards.
        for loop in reversed(loops):
            if loop.parent is None:
                continue
            hoisted = self._process_loop(loop)
            if hoisted:
                report.add_statistic(self.NAME, "ops_hoisted", hoisted)

    # ------------------------------------------------------------------
    def _process_loop(self, loop: Operation) -> int:
        trip_count = _loop_trip_count(loop)
        may_not_execute = trip_count is None or trip_count == 0
        hoisted_total = 0
        # Built at the first effectful candidate and kept for the whole
        # call.  A local on purpose: pass instances are pooled and shared
        # across workers.
        summary: Optional[_BodyEffects] = None
        changed = True
        while changed:
            changed = False
            for op in loop.loop_body().ops_without_terminator():
                if op.parent is None or op.regions:
                    continue
                if not self._operands_defined_outside(op, loop):
                    continue
                if is_side_effect_free(op):
                    # Pure but possibly-trapping ops (integer division,
                    # shifts, math domain errors) must not be speculated
                    # above a loop that may execute zero times.
                    if may_not_execute and has_trait(op, Trait.MAY_TRAP):
                        continue
                    self._hoist(op, loop)
                    hoisted_total += 1
                    changed = True
                    continue
                if may_not_execute:
                    continue
                if summary is None:
                    summary = _BodyEffects(loop, self.alias_analysis)
                if self._can_hoist_effectful(op, summary):
                    self._hoist(op, loop)
                    hoisted_total += 1
                    changed = True
        return hoisted_total

    # ------------------------------------------------------------------
    def _operands_defined_outside(self, op: Operation, loop: Operation) -> bool:
        for operand in op.operands:
            defining = operand.defining_op()
            if defining is not None and loop.is_ancestor_of(defining):
                return False
            if defining is None:
                block = operand.owner_block()
                if block is not None and block.parent_op() is not None and \
                        loop.is_ancestor_of(block.parent_op()):
                    return False
        return True

    @staticmethod
    def _can_hoist_effectful(op: Operation, summary: _BodyEffects) -> bool:
        """May the effectful ``op`` leave the loop ``summary`` describes?

        A write in the loop kills hoisting of reads of an aliasing
        location, and of writes to an aliasing location.  A read in the
        loop prevents hoisting a write that may alias it, unless the read
        always observes the hoisted write's (invariant) value: the
        candidate is the only write to that location and precedes the
        read in the loop body.  So a candidate that only reads is checked
        against the body's writes alone.  An allocation stays when the
        loop frees it.
        """
        effects = get_memory_effects(op)
        if effects is None:
            return False
        targets: List[Value] = []
        write_targets: List[Value] = []
        for effect in effects:
            kind = effect.kind
            if kind == EffectKind.ALLOCATE:
                if summary.freed and any(value is effect.value
                                         for value in summary.freed):
                    return False
                continue
            if effect.value is None or kind not in _ACCESSES:
                return False
            targets.append(effect.value)
            if kind == EffectKind.WRITE:
                write_targets.append(effect.value)

        body = summary.body
        for other in summary.unknown:
            if other is not op and other.parent is body:
                return False
        if targets:
            for other, value in summary.writes:
                if other is not op and other.parent is body and \
                        summary.conflicts(value, targets):
                    return False
        if write_targets:
            for other, value in summary.reads:
                if other is not op and other.parent is body and \
                        summary.conflicts(value, write_targets) and \
                        not op.is_before_in_block(other):
                    return False
        return True

    @staticmethod
    def _hoist(op: Operation, loop: Operation) -> None:
        op.move_before(loop)


register_pass_alias(
    "licm", LoopInvariantCodeMotion,
    description="Alias of sycl-licm (the paper's default LICM).")
register_pass_alias(
    "licm-generic", LoopInvariantCodeMotion,
    description="LICM with the dialect-independent alias analysis "
                "(the DPC++/LLVM-IR baseline behaviour).",
    alias="generic")
