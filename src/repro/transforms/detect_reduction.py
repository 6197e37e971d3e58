"""Detect Reduction (paper, Section VI-B, Listings 4-5).

The pass looks for the array-reduction pattern inside counted loops::

    affine.for %iv = %lb to %ub {
      %val = affine.load %ptr[c]
      ...
      affine.store %res, %ptr[c]
    }

and rewrites it so that the running value is carried in a loop-carried scalar
(``iter_args``) instead of going through memory on every iteration::

    %init = affine.load %ptr[c]
    %result = affine.for %iv = %lb to %ub iter_args(%red = %init) {
      ...
      affine.yield %res
    }
    affine.store %result, %ptr[c]

Safety relies on the (SYCL-specialized) alias analysis: no other memory
access in the loop may alias the reduced location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from ..ir import (
    EffectKind,
    Operation,
    Value,
    get_memory_effects,
)
from ..dialects import affine as affine_dialect
from ..dialects import arith
from ..dialects import memref as memref_dialect
from ..dialects import scf as scf_dialect
from ..dialects.func import FuncOp
from .licm import ALIAS_CHOICES, make_alias_analysis
from .pass_manager import (
    CompileReport,
    FunctionPass,
    PassOptions,
    register_pass,
    register_pass_alias,
)


@dataclass
class ReductionCandidate:
    """A load/store pair forming one array reduction in a loop."""

    load: Operation
    store: Operation
    memref: Value
    indices: Tuple[Value, ...]


def _access_indices(op: Operation) -> Tuple[Value, ...]:
    return tuple(op.indices)


def _same_indices(a: Sequence[Value], b: Sequence[Value]) -> bool:
    if len(a) != len(b):
        return False
    for lhs, rhs in zip(a, b):
        if lhs is rhs:
            continue
        lhs_const = arith.constant_value_of(lhs)
        rhs_const = arith.constant_value_of(rhs)
        if lhs_const is None or rhs_const is None or lhs_const != rhs_const:
            return False
    return True


def _value_defined_outside(value: Value, loop: Operation) -> bool:
    defining = value.defining_op()
    if defining is not None:
        return not loop.is_ancestor_of(defining)
    block = value.owner_block()
    parent = block.parent_op() if block is not None else None
    return parent is None or not loop.is_ancestor_of(parent)


def _depends_on(value: Value, source: Value, limit: int = 64) -> bool:
    """True if ``value`` (transitively) uses ``source``."""
    if value is source:
        return True
    defining = value.defining_op()
    if defining is None or limit <= 0:
        return False
    return any(_depends_on(operand, source, limit - 1)
               for operand in defining.operands)


def find_reductions(loop: Operation, alias_analysis,
                    invariant: Callable[[Value], bool],
                    ignore: Collection[Operation] = ()
                    ) -> List[ReductionCandidate]:
    """The array reductions of ``loop`` that can live in a register.

    A reduction is a load and a later store of one location that is
    fixed for the whole loop (``invariant`` holds for its memref and
    indices), where the stored value depends on the loaded one, and no
    other access in the loop may touch that location.  Accesses in
    ``ignore`` are left out of that check: Loop Internalization asks
    which pairs would qualify once its candidate loads read local memory
    instead.
    """
    body_ops = loop.loop_body().ops_without_terminator()
    loads = [op for op in body_ops
             if isinstance(op, (affine_dialect.AffineLoadOp,
                                memref_dialect.LoadOp))]
    stores = [op for op in body_ops
              if isinstance(op, (affine_dialect.AffineStoreOp,
                                 memref_dialect.StoreOp))]
    skipped = set(ignore)
    candidates: List[ReductionCandidate] = []
    used_stores: set = set()
    for load in loads:
        if load in skipped or not invariant(load.memref) or \
                not all(invariant(i) for i in load.indices):
            continue
        match = None
        for store in stores:
            if id(store) in used_stores:
                continue
            if store.memref is not load.memref and \
                    not alias_analysis.alias(store.memref,
                                             load.memref).is_must():
                continue
            if not _same_indices(_access_indices(load), _access_indices(store)):
                continue
            if not load.is_before_in_block(store):
                continue
            if not _depends_on(store.value, load.result):
                continue
            match = store
            break
        if match is None:
            continue
        candidate = ReductionCandidate(load, match, load.memref,
                                       _access_indices(load))
        if _is_safe(loop, candidate, alias_analysis, skipped):
            used_stores.add(id(match))
            candidates.append(candidate)
    return candidates


def _is_safe(loop: Operation, candidate: ReductionCandidate, alias_analysis,
             skipped: Collection[Operation]) -> bool:
    """No other access in the loop may touch the reduced location."""
    for op in loop.walk(include_self=False):
        if op is candidate.load or op is candidate.store or op in skipped:
            continue
        effects = get_memory_effects(op)
        if effects is None:
            return False
        for effect in effects:
            if effect.kind not in (EffectKind.READ, EffectKind.WRITE):
                continue
            if effect.value is None:
                return False
            if alias_analysis.may_alias(effect.value, candidate.memref):
                return False
    return True


@register_pass
class DetectReduction(FunctionPass):
    """Turns array reductions into loop-carried scalar reductions."""

    NAME = "detect-reduction"

    STATISTICS = (
        ("reductions_detected", "array reductions converted to loop-carried "
                                "scalar reductions"),
    )

    @dataclass
    class Options(PassOptions):
        #: Alias analysis proving the reduced location is unaliased.
        alias: str = field(default="sycl",
                           metadata={"choices": ALIAS_CHOICES})

    #: Loop kinds handled by the pass.
    _LOOP_TYPES = (affine_dialect.AffineForOp, scf_dialect.ForOp)

    def __init__(self, options: Optional[PassOptions] = None):
        super().__init__(options)
        #: Built once from the ``alias=`` option (the analyses are
        #: stateless).
        self.alias_analysis = make_alias_analysis(self.options.alias)

    # ------------------------------------------------------------------
    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        # Collect loops first: the rewrite replaces loop operations.
        loops = [op for op in function.walk() if isinstance(op, self._LOOP_TYPES)]
        for loop in loops:
            if loop.parent is None:
                continue
            candidates = find_reductions(
                loop, self.alias_analysis,
                lambda value: _value_defined_outside(value, loop))
            if not candidates:
                continue
            self._rewrite_loop(loop, candidates)
            report.add_statistic(self.NAME, "reductions_detected", len(candidates))
            report.remark(
                f"{self.NAME}: converted {len(candidates)} array reduction(s) "
                f"in {function.sym_name}")

    # ------------------------------------------------------------------
    # Rewrite
    # ------------------------------------------------------------------
    def _rewrite_loop(self, loop: Operation,
                      candidates: List[ReductionCandidate]) -> None:
        parent_block = loop.parent
        assert parent_block is not None

        # 1. Initial loads of the reduced locations, placed before the loop.
        init_values: List[Value] = []
        for candidate in candidates:
            load_class = (affine_dialect.AffineLoadOp
                          if isinstance(candidate.load, affine_dialect.AffineLoadOp)
                          else memref_dialect.LoadOp)
            init_load = load_class.build(candidate.memref, list(candidate.indices))
            parent_block.insert_before(loop, init_load)
            init_values.append(init_load.result)

        # 2. A new loop carrying the reduction values.
        existing_inits = list(loop.init_args)
        if isinstance(loop, affine_dialect.AffineForOp):
            new_loop = affine_dialect.AffineForOp.build(
                loop.lower_bound, loop.upper_bound, loop.step,
                iter_args=existing_inits + init_values)
        else:
            new_loop = scf_dialect.ForOp.build(
                loop.lower_bound, loop.upper_bound, loop.step,
                iter_args=existing_inits + init_values)
        parent_block.insert_before(loop, new_loop)

        mapping: Dict[Value, Value] = {}
        old_body = loop.loop_body()
        new_body = new_loop.loop_body()
        mapping[old_body.arguments[0]] = new_body.arguments[0]
        for old_arg, new_arg in zip(old_body.arguments[1:],
                                    new_body.arguments[1:]):
            mapping[old_arg] = new_arg
        reduction_args = new_body.arguments[1 + len(existing_inits):]
        for candidate, red_arg in zip(candidates, reduction_args):
            mapping[candidate.load.result] = red_arg

        skip = {id(c.load) for c in candidates} | {id(c.store) for c in candidates}
        old_terminator = old_body.terminator
        stored_values: List[Value] = []
        for op in old_body.operations:
            if id(op) in skip or op is old_terminator:
                continue
            cloned = op.clone(mapping)
            new_body.append(cloned)
        # Yield: original yields (if any) followed by the reduction values.
        original_yields = [mapping.get(v, v) for v in loop.yielded_values()]
        for candidate in candidates:
            stored_values.append(mapping.get(candidate.store.value,
                                             candidate.store.value))
        if isinstance(new_loop, affine_dialect.AffineForOp):
            new_body.append(affine_dialect.AffineYieldOp.build(
                original_yields + stored_values))
        else:
            new_body.append(scf_dialect.YieldOp.build(
                original_yields + stored_values))

        # 3. Store the final reduction values after the loop.
        for index, candidate in enumerate(candidates):
            result = new_loop.results[len(existing_inits) + index]
            store_class = (affine_dialect.AffineStoreOp
                           if isinstance(candidate.store,
                                         affine_dialect.AffineStoreOp)
                           else memref_dialect.StoreOp)
            final_store = store_class.build(
                result, candidate.memref, list(candidate.indices))
            parent_block.insert_after(new_loop, final_store)

        # 4. Rewire uses of the original loop results and erase it.
        for old_result, new_result in zip(loop.results, new_loop.results):
            old_result.replace_all_uses_with(new_result)
        loop.erase()


register_pass_alias(
    "detect-reduction-generic", DetectReduction,
    description="Detect Reduction with the dialect-independent alias "
                "analysis (the DPC++/LLVM-IR baseline behaviour).",
    alias="generic")
