"""Uniformity analysis (paper, Section V-C).

A value is *uniform* when every work-item in a work-group computes the same
value for it, and *non-uniform* otherwise.  Divergent branches — branches
whose condition is non-uniform — matter because injecting a work-group
barrier inside one would deadlock; the Loop Internalization pass therefore
queries this analysis before transforming a loop (Section VI-C).

The analysis is an inter-procedural data-flow analysis:

* formal parameters start as *unknown*, except for SYCL kernel entry points
  whose parameters are uniform by definition;
* operations carrying the ``NON_UNIFORM_SOURCE`` trait produce non-uniform
  results (e.g. ``sycl.nd_item.get_global_id``), those carrying
  ``UNIFORM_SOURCE`` produce uniform results;
* other operations are non-uniform if any operand is, unknown if any operand
  is unknown, and uniform when all operands are uniform and the operation is
  free of memory effects;
* loads are resolved through the reaching-definition analysis: the
  uniformity of the stored values *and of the branch conditions dominating
  the stores* is merged (data divergence through memory);
* the call graph propagates argument uniformity to callee parameters when
  all call sites are known.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from ..ir import (
    EffectKind,
    Operation,
    Trait,
    Value,
    get_memory_effects,
    has_trait,
)
from ..dialects import scf as scf_dialect
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from .alias import AliasAnalysis
from .callgraph import CallGraph
from .reaching_definitions import ReachingDefinitionAnalysis
from .sycl_alias import SYCLAliasAnalysis


class Uniformity(enum.Enum):
    UNIFORM = "uniform"
    NON_UNIFORM = "non_uniform"
    UNKNOWN = "unknown"

    @staticmethod
    def merge(values: Iterable["Uniformity"]) -> "Uniformity":
        result = Uniformity.UNIFORM
        for value in values:
            if value is Uniformity.NON_UNIFORM:
                return Uniformity.NON_UNIFORM
            if value is Uniformity.UNKNOWN:
                result = Uniformity.UNKNOWN
        return result


#: Maximum number of inter-procedural fixpoint rounds.
_INTERPROCEDURAL_ROUNDS = 4


class UniformityAnalysis:
    """Inter-procedural uniformity analysis over a module or function."""

    def __init__(self, root: Operation,
                 alias_analysis: Optional[AliasAnalysis] = None):
        self.root = root
        self.alias_analysis = alias_analysis or SYCLAliasAnalysis()
        self._uniformity: Dict[int, Uniformity] = {}
        self._reaching: Dict[int, ReachingDefinitionAnalysis] = {}
        self._param_uniformity: Dict[int, List[Uniformity]] = {}
        self._call_graph: Optional[CallGraph] = None
        if isinstance(root, ModuleOp):
            self._call_graph = CallGraph(root)
            self._run_module(root)
        else:
            self._run_function(root)

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def uniformity_of(self, value: Value) -> Uniformity:
        return self._uniformity.get(id(value), Uniformity.UNKNOWN)

    def is_divergent_branch(self, op: Operation) -> bool:
        """An ``scf.if`` whose condition is not known to be uniform."""
        if not isinstance(op, scf_dialect.IfOp):
            return False
        return self.uniformity_of(op.condition) is not Uniformity.UNIFORM

    def is_in_divergent_region(self, op: Operation) -> bool:
        """True when ``op`` is nested in a branch that may diverge.

        This is the query Loop Internalization uses to reject candidate
        loops (a barrier in a divergent region would deadlock).
        """
        ancestor = op.parent_op()
        while ancestor is not None:
            if isinstance(ancestor, scf_dialect.IfOp) and \
                    self.is_divergent_branch(ancestor):
                return True
            ancestor = ancestor.parent_op()
        return False

    def divergent_branches(self, root: Optional[Operation] = None) \
            -> List[Operation]:
        """Every ``scf.if`` under ``root`` (default: the analysis root)
        whose condition is not known to be uniform.

        The vectorized execution tier uses this query to decide legality:
        a kernel with any divergent branch cannot run whole work-groups
        in lockstep, so it falls back to the scalar interpreter.
        """
        scope = root if root is not None else self.root
        return [op for op in scope.walk()
                if self.is_divergent_branch(op)]

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _run_module(self, module: ModuleOp) -> None:
        functions = self._all_functions(module)
        # Seed parameter uniformity.
        for function in functions:
            self._param_uniformity[id(function)] = self._initial_parameters(function)
        for _ in range(_INTERPROCEDURAL_ROUNDS):
            changed = False
            for function in functions:
                self._run_function(function)
            changed = self._propagate_call_arguments(functions)
            if not changed:
                break
        # Final pass with stable parameter information.
        for function in functions:
            self._run_function(function)

    def _all_functions(self, module: ModuleOp) -> List[FuncOp]:
        functions: List[FuncOp] = []
        for op in module.walk():
            if isinstance(op, FuncOp):
                functions.append(op)
        return functions

    def _initial_parameters(self, function: FuncOp) -> List[Uniformity]:
        if function.is_kernel():
            # Kernel entry-point parameters are uniform by definition: every
            # work-item receives the same accessors / scalars / nd_item
            # object handle.
            return [Uniformity.UNIFORM] * len(function.arguments)
        return [Uniformity.UNKNOWN] * len(function.arguments)

    def _propagate_call_arguments(self, functions: List[FuncOp]) -> bool:
        if self._call_graph is None:
            return False
        changed = False
        for function in functions:
            if function.is_kernel():
                continue
            callers = self._call_graph.callers_of(function)
            if not callers:
                continue
            if self._call_graph.has_external_callers(function):
                # External calls possible: keep the conservative default.
                continue
            merged: List[Uniformity] = []
            for index in range(len(function.arguments)):
                at_index = []
                for site in callers:
                    args = getattr(site.call_op, "call_arguments", None)
                    actual_args = site.call_op.operands if args is None else \
                        site.call_op.call_arguments()
                    if index < len(actual_args):
                        at_index.append(self.uniformity_of(actual_args[index]))
                merged.append(Uniformity.merge(at_index) if at_index
                              else Uniformity.UNKNOWN)
            if merged != self._param_uniformity.get(id(function)):
                self._param_uniformity[id(function)] = merged
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Per-function analysis
    # ------------------------------------------------------------------
    def _run_function(self, function: Operation) -> None:
        if isinstance(function, FuncOp):
            params = self._param_uniformity.get(id(function))
            if params is None:
                params = self._initial_parameters(function)
                self._param_uniformity[id(function)] = params
            for argument, uniformity in zip(function.arguments, params):
                self._uniformity[id(argument)] = uniformity
        reaching = ReachingDefinitionAnalysis(function, self.alias_analysis)
        self._reaching[id(function)] = reaching
        self._visit_region_ops(function, reaching)

    def _visit_region_ops(self, root: Operation,
                          reaching: ReachingDefinitionAnalysis) -> None:
        for op in root.walk(include_self=False):
            self._visit_op(op, reaching)

    def _visit_op(self, op: Operation,
                  reaching: ReachingDefinitionAnalysis) -> None:
        # Region entry block arguments (loop induction variables, iter args).
        if isinstance(op, (scf_dialect.ForOp,)) or \
                op.OPERATION_NAME == "affine.for":
            self._assign_loop_arguments(op)

        if not op.results:
            return

        if has_trait(op, Trait.NON_UNIFORM_SOURCE):
            self._set_results(op, Uniformity.NON_UNIFORM)
            return
        if has_trait(op, Trait.UNIFORM_SOURCE):
            self._set_results(op, Uniformity.UNIFORM)
            return
        if has_trait(op, Trait.CONSTANT_LIKE):
            self._set_results(op, Uniformity.UNIFORM)
            return

        operand_uniformity = [self.uniformity_of(v) for v in op.operands]
        merged = Uniformity.merge(operand_uniformity)
        if merged is Uniformity.NON_UNIFORM:
            self._set_results(op, Uniformity.NON_UNIFORM)
            return

        effects = get_memory_effects(op)
        if effects is None:
            self._set_results(op, Uniformity.UNKNOWN)
            return
        if not effects:
            self._set_results(op, merged)
            return

        # Operation with memory effects: analyse reads through reaching defs.
        result = merged
        for effect in effects:
            if effect.kind != EffectKind.READ or effect.value is None:
                continue
            result = Uniformity.merge(
                [result, self._uniformity_of_memory(op, effect.value, reaching)])
        self._set_results(op, result)

    def _assign_loop_arguments(self, loop: Operation) -> None:
        """Loop induction variables inherit uniformity from the bounds."""
        body = loop.regions[0].front if loop.regions and loop.regions[0].blocks \
            else None
        if body is None or not body.arguments:
            return
        bound_uniformity = Uniformity.merge(
            self.uniformity_of(operand) for operand in loop.operands)
        iv = body.arguments[0]
        self._uniformity[id(iv)] = bound_uniformity
        for extra in body.arguments[1:]:
            self._uniformity.setdefault(id(extra), bound_uniformity)

    def _uniformity_of_memory(self, at: Operation, pointer: Value,
                              reaching: ReachingDefinitionAnalysis) -> Uniformity:
        """Uniformity of the memory read by ``at`` through ``pointer``."""
        defs = reaching.reaching_definitions(at, pointer)
        if not defs.all_definitions:
            # No writes seen: the value comes from outside the kernel (e.g.
            # accessor data written by the host), identical for every
            # work-item unless indexed non-uniformly — and non-uniform
            # indexing is already accounted for through the operands.
            return Uniformity.UNIFORM
        parts: List[Uniformity] = []
        for definition in defs.all_definitions:
            parts.append(self._uniformity_of_definition(definition))
        return Uniformity.merge(parts)

    def _uniformity_of_definition(self, definition: Operation) -> Uniformity:
        # The stored value's uniformity...
        stored = Uniformity.merge(
            self.uniformity_of(operand) for operand in definition.operands)
        if stored is Uniformity.NON_UNIFORM:
            return Uniformity.NON_UNIFORM
        # ... merged with the uniformity of dominating branch conditions:
        # a uniform value stored under a divergent branch produces divergent
        # data (Listing 2 of the paper).
        conditions = self._dominating_branch_conditions(definition)
        merged = Uniformity.merge([stored, *conditions])
        return merged

    def _dominating_branch_conditions(self, op: Operation) -> List[Uniformity]:
        conditions: List[Uniformity] = []
        ancestor = op.parent_op()
        while ancestor is not None:
            if isinstance(ancestor, scf_dialect.IfOp):
                conditions.append(self.uniformity_of(ancestor.condition))
            ancestor = ancestor.parent_op()
        return conditions

    def _set_results(self, op: Operation, uniformity: Uniformity) -> None:
        for result in op.results:
            self._uniformity[id(result)] = uniformity
