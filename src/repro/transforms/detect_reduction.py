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
access in the loop may alias the reduced location.  With ``alias=sycl``
one more fact applies, the SYCL 2020 memory model's: a data race is
undefined behaviour, so *a read other work-items share cannot alias a
reduction* (:class:`SharedReads`).  A read ``R`` that may alias the pair
is left out of the check when

* the kernel has a ``sycl.work_group_size`` with a dimension ``d`` of
  extent >= 2 on which ``R``'s address does not depend;
* ``R`` reads memory the work-group shares: an accessor or memref
  argument of the kernel, or a local allocation (a private array is
  each work-item's own, so another work-item never reads its copy);
* the Memory Access Analysis gives ``R`` an affine address whose every
  column is the induction variable of the loop or of an enclosing loop, a
  work-item id query of a constant dimension (a linear id depends on every
  dimension), or a parameter the Uniformity Analysis proves uniform and
  no loop-carried value feeds;
* ``R`` sits directly in the loop body, neither the loop nor an enclosing
  loop is in a divergent region, their bounds are uniform and the loop
  runs a constant number >= 1 of trips;
* the loop has no barrier and the pair's store sits directly in its body
  (every pair needs both).

Then if ``R`` at work-item ``w`` read the pair's location on some trip,
``w`` moved along ``d`` inside its group would read it on the same trip,
while ``w`` writes it on every trip with no barrier in between: a race,
so no well-defined program has the alias.  A write that may alias still
makes the pass decline.  Loop Internalization asks the same question of
the loop it tiles: its prefetched loads are such reads, and its barriers
are its own, inserted into a loop that had none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from ..ir import (
    BlockArgument,
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
from ..dialects.sycl import work_group_size_of
from ..analysis.alias import (is_distinct_allocation, memory_space_of,
                              underlying_object)
from ..analysis.memory_access import (
    BasisKind,
    MemoryAccess,
    MemoryAccessAnalysis,
)
from ..analysis.uniformity import Uniformity, UniformityAnalysis
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


_LOOPS = (affine_dialect.AffineForOp, scf_dialect.ForOp)
_LOADS = (affine_dialect.AffineLoadOp, memref_dialect.LoadOp)
_STORES = (affine_dialect.AffineStoreOp, memref_dialect.StoreOp)


@dataclass(frozen=True)
class SharedReads:
    """The rule "a read other work-items share cannot alias a reduction"
    for one kernel (see the module docstring): :meth:`of` names the reads
    of a loop it lets :func:`find_reductions` leave out.  The analyses
    are asked for only when a read may alias a pair, and the Uniformity
    Analysis only about a value that is not a constant."""

    work_group: Tuple[int, ...]
    uniformity: Callable[[], UniformityAnalysis]
    accesses: Callable[[Operation], MemoryAccessAnalysis]

    @classmethod
    def of_kernel(cls, function: FuncOp, get_analysis
                  ) -> Optional["SharedReads"]:
        """The rule for ``function``, ``None`` without a work-group size;
        ``get_analysis(cls, op)`` answers the analyses."""
        work_group = work_group_size_of(function)
        if not work_group or not function.is_kernel():
            return None
        return cls(work_group,
                   lambda: get_analysis(UniformityAnalysis, function),
                   lambda loop: get_analysis(MemoryAccessAnalysis, loop))

    def of(self, loop: Operation) -> FrozenSet[Operation]:
        loops = self._loops_around(loop)
        if loops is None or not loop.constant_trip_count():
            return frozenset()
        ivs = {id(enclosing.loop_body().arguments[0]) for enclosing in loops}
        analysis = self.accesses(loop)
        return frozenset(
            op for op in loop.loop_body().ops_without_terminator()
            if isinstance(op, _LOADS) and _group_shared(op.memref)
            and self._spares_a_dimension(analysis.access_for(op), ivs))

    def _uniform(self, value: Value) -> bool:
        return arith.constant_value_of(value) is not None or \
            self.uniformity().uniformity_of(value) is Uniformity.UNIFORM

    def _loops_around(self, loop: Operation) -> Optional[List[Operation]]:
        """``loop`` and its enclosing loops, when every work-item of the
        group runs them alike: uniform bounds, no divergent branch around
        them and no other region."""
        loops: List[Operation] = []
        op: Optional[Operation] = loop
        while op is not None and not isinstance(op, FuncOp):
            if isinstance(op, _LOOPS):
                bounds = [op.lower_bound, op.upper_bound]
                if isinstance(op, scf_dialect.ForOp):
                    bounds.append(op.step)
                if not all(self._uniform(bound) for bound in bounds):
                    return None
                loops.append(op)
            elif not isinstance(op, scf_dialect.IfOp) or \
                    self.uniformity().is_divergent_branch(op):
                return None
            op = op.parent_op()
        return loops

    def _spares_a_dimension(self, access: Optional[MemoryAccess],
                            ivs: set) -> bool:
        """Whether ``access`` is affine in the allowed columns and does
        not depend on some work-group dimension of extent >= 2."""
        if access is None:
            return False
        used = set()
        for column, basis in enumerate(access.basis):
            if not any(row[column] for row in access.matrix):
                continue
            value = basis.value
            if basis.kind is BasisKind.LOOP:
                if id(value) not in ivs:
                    return False
            elif basis.kind is BasisKind.WORK_ITEM:
                dimension = value.defining_op().dimension
                dimension = None if dimension is None \
                    else arith.constant_value_of(dimension)
                if dimension is None:
                    return False  # depends on every dimension
                used.add(int(dimension))
            elif not self._uniform(value) or _loop_carried(value, ivs):
                return False
        return any(extent >= 2 and dimension not in used
                   for dimension, extent in enumerate(self.work_group))


def _group_shared(memref: Value) -> bool:
    """Whether every work-item of the group reaches the same memory
    through ``memref``: a kernel argument or a local allocation."""
    base = underlying_object(memref)
    space = memory_space_of(base)
    if is_distinct_allocation(base):
        return space == "local"
    return space != "private" and isinstance(base, BlockArgument) and \
        isinstance(base.owner_block().parent_op(), FuncOp)


def _loop_carried(value: Value, ivs: set, limit: int = 64) -> bool:
    """Whether ``value`` is computed from a loop-carried value (an
    ``iter_args`` argument or a loop result): the Uniformity Analysis
    gives those their bounds' uniformity, not their yields'."""
    if id(value) in ivs:
        return False
    defining = value.defining_op()
    if defining is None:
        return not isinstance(value, BlockArgument) or not isinstance(
            value.owner_block().parent_op(), FuncOp)
    if defining.regions or limit <= 0:
        return True
    return any(_loop_carried(operand, ivs, limit - 1)
               for operand in defining.operands)


def find_reductions(loop: Operation, alias_analysis,
                    invariant: Callable[[Value], bool],
                    shared: Optional[SharedReads] = None
                    ) -> List[ReductionCandidate]:
    """The array reductions of ``loop`` that can live in a register.

    A reduction is a load and a later store of one location that is
    fixed for the whole loop (``invariant`` holds for its memref and
    indices), where the stored value depends on the loaded one, and no
    other access in the loop may touch that location, leaving out the
    reads ``shared`` proves cannot (:class:`SharedReads`).
    """
    body_ops = loop.loop_body().ops_without_terminator()
    loads = [op for op in body_ops if isinstance(op, _LOADS)]
    stores = [op for op in body_ops if isinstance(op, _STORES)]
    spared: List[FrozenSet[Operation]] = []

    def is_spared(op: Operation) -> bool:
        if shared is None:
            return False
        if not spared:
            spared.append(shared.of(loop))
        return op in spared[0]

    candidates: List[ReductionCandidate] = []
    used_stores: set = set()
    for load in loads:
        if not invariant(load.memref) or \
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
        if _is_safe(loop, candidate, alias_analysis, is_spared):
            used_stores.add(id(match))
            candidates.append(candidate)
    return candidates


def _is_safe(loop: Operation, candidate: ReductionCandidate, alias_analysis,
             is_spared: Callable[[Operation], bool]) -> bool:
    """No other access in the loop may touch the reduced location."""
    for op in loop.walk(include_self=False):
        if op is candidate.load or op is candidate.store:
            continue
        effects = get_memory_effects(op)
        if effects is None:
            return False
        for effect in effects:
            if effect.kind not in (EffectKind.READ, EffectKind.WRITE):
                continue
            if effect.value is None:
                return False
            if alias_analysis.may_alias(effect.value, candidate.memref) \
                    and not is_spared(op):
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

    def __init__(self, options: Optional[PassOptions] = None):
        super().__init__(options)
        #: Built once from the ``alias=`` option (the analyses are
        #: stateless).
        self.alias_analysis = make_alias_analysis(self.options.alias)

    # ------------------------------------------------------------------
    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        # Collect loops first: the rewrite replaces loop operations.
        loops = [op for op in function.walk() if isinstance(op, _LOOPS)]
        shared = SharedReads.of_kernel(function, self.get_analysis) \
            if self.options.alias == "sycl" else None
        for loop in loops:
            if loop.parent is None:
                continue
            candidates = find_reductions(
                loop, self.alias_analysis,
                lambda value: _value_defined_outside(value, loop), shared)
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
