"""``repro-lint``: static rules that catch miscompile classes before execution.

PR 5's differential interpreter found two real miscompiles — a cached
``sycl.accessor.get_pointer`` that stopped dominating its uses across
sibling regions, and a ``MAY_TRAP`` division speculated out of a
possibly-zero-trip loop — by *executing* modules.  Both properties are
statically decidable; the rules here decide them (plus four more classes
in the same spirit) on unexecuted IR, reporting source-located
:class:`~repro.ir.diagnostics.Diagnostic` findings.

Rules are registered with :func:`register_lint_rule` and run by
:func:`run_lint`; each rule requests the analyses it needs through an
:class:`~repro.analysis.manager.AnalysisManager`, so repeated rules (and
``repro-opt --lint-each``) share cached results.

Shipped rules:

``non-dominating-use``
    an operand whose definition does not dominate the use (the cached
    ``get_pointer`` class);
``speculated-trap``
    a ``MAY_TRAP`` op placed outside the conditional/possibly-zero-trip
    loop region that guards every one of its uses (the LICM hoist class);
``barrier-divergence``
    ``sycl.group_barrier`` under control flow uniformity analysis cannot
    prove uniform (deadlocks a work-group);
``readonly-accessor-write``
    a store through a view of a read-only accessor;
``dead-private-function``
    a private ``func.func`` no call site reaches;
``uninitialised-private-load``
    a constant-slot load of a private ``memref.alloca`` that nothing has
    stored to since the allocation (``mem2reg``'s first decline reason).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..ir import (
    Diagnostic,
    DiagnosticEngine,
    DominanceInfo,
    Operation,
    Severity,
    Trait,
    has_trait,
    location_of,
)
from ..dialects import affine as affine_dialect
from ..dialects import memref as memref_dialect
from ..dialects import scf as scf_dialect
from ..dialects.func import FuncOp
from ..dialects.memref import AllocaOp
from ..dialects.sycl import SYCLGroupBarrierOp, accessor_type_of
from .alias import underlying_object
from .callgraph import CallGraph
from .manager import AnalysisManager
from .private_slots import forward_private_slots
from .uniformity import UniformityAnalysis


@dataclass
class LintContext:
    """What a rule sees: the module, shared analyses and a findings sink."""

    module: Operation
    am: AnalysisManager
    engine: Optional[DiagnosticEngine] = None
    findings: List[Diagnostic] = field(default_factory=list)

    def report(self, severity: Severity, message: str,
               op: Operation) -> Diagnostic:
        diagnostic = Diagnostic(severity, message, location_of(op))
        self.findings.append(diagnostic)
        if self.engine is not None:
            self.engine.emit(diagnostic)
        return diagnostic

    def error(self, message: str, op: Operation) -> Diagnostic:
        return self.report(Severity.ERROR, message, op)

    def warning(self, message: str, op: Operation) -> Diagnostic:
        return self.report(Severity.WARNING, message, op)


LintRule = Callable[[LintContext], None]


@dataclass
class LintRuleRegistration:
    name: str
    rule: LintRule
    description: str


#: All registered rules, in registration order, keyed by rule name.
LINT_RULES: Dict[str, LintRuleRegistration] = {}


def register_lint_rule(name: str, description: str = ""):
    """Decorator registering a lint rule under ``name``."""

    def wrap(rule: LintRule) -> LintRule:
        if name in LINT_RULES:
            raise ValueError(f"lint rule {name!r} is already registered")
        doc = description or (rule.__doc__ or "").strip().splitlines()[0]
        LINT_RULES[name] = LintRuleRegistration(name, rule, doc)
        return rule

    return wrap


def run_lint(module: Operation,
             rules: Optional[List[str]] = None,
             am: Optional[AnalysisManager] = None,
             engine: Optional[DiagnosticEngine] = None) -> List[Diagnostic]:
    """Run lint rules over ``module``; return the findings.

    ``rules`` selects a subset by name (default: all registered rules);
    ``am`` shares analysis results with the caller's pipeline run.
    """
    selected = list(LINT_RULES) if rules is None else list(rules)
    unknown = [name for name in selected if name not in LINT_RULES]
    if unknown:
        known = ", ".join(LINT_RULES)
        raise ValueError(
            f"unknown lint rule(s) {', '.join(unknown)} "
            f"(available: {known})")
    context = LintContext(module=module,
                          am=am if am is not None else AnalysisManager(),
                          engine=engine)
    for name in selected:
        LINT_RULES[name].rule(context)
    return context.findings


def describe_lint_rules() -> str:
    lines = ["Registered lint rules:"]
    for registration in LINT_RULES.values():
        lines.append(f"  {registration.name:26} {registration.description}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@register_lint_rule(
    "non-dominating-use",
    "operand definitions must dominate their uses (catches cached "
    "pointers escaping into sibling regions)")
def _lint_non_dominating_use(ctx: LintContext) -> None:
    dominance = ctx.am.get(DominanceInfo, ctx.module)
    for op in ctx.module.walk():
        for operand in op.operands:
            if dominance.value_dominates(operand, op):
                continue
            diagnostic = ctx.error(
                f"operand of '{op.name}' does not dominate this use", op)
            defining = operand.defining_op()
            if defining is not None:
                diagnostic.attach_note(
                    f"definition by '{defining.name}' is in a region that "
                    f"does not enclose the use", location_of(defining))


_LOOP_OPS = (scf_dialect.ForOp, affine_dialect.AffineForOp,
             scf_dialect.WhileOp)


def _loop_may_not_execute(loop: Operation) -> bool:
    trip = getattr(loop, "constant_trip_count", lambda: None)()
    return trip is None or trip == 0


@register_lint_rule(
    "speculated-trap",
    "MAY_TRAP ops must not sit outside the conditional/loop region "
    "guarding every use (catches illegal LICM speculation)")
def _lint_speculated_trap(ctx: LintContext) -> None:
    for op in ctx.module.walk():
        if not has_trait(op, Trait.MAY_TRAP) or op.parent is None:
            continue
        users = [user for result in op.results for user in result.users()]
        if not users:
            continue
        # Hoist every user to its ancestor in op's own block; if all land
        # on one region-holding sibling, that sibling guards every use.
        guards = set()
        for user in users:
            ancestor: Optional[Operation] = user
            while ancestor is not None and ancestor.parent is not op.parent:
                ancestor = ancestor.parent_op()
            if ancestor is None or ancestor is op:
                guards.clear()
                break
            guards.add(ancestor)
        if len(guards) != 1:
            continue
        guard = guards.pop()
        if guard is op or not guard.regions:
            continue
        if isinstance(guard, scf_dialect.IfOp):
            reason = "a conditional region"
        elif isinstance(guard, _LOOP_OPS) and _loop_may_not_execute(guard):
            reason = "a possibly-zero-trip loop"
        else:
            continue
        ctx.warning(
            f"'{op.name}' may trap but was speculated outside {reason} "
            f"('{guard.name}') that guards every use", op).attach_note(
                "guarding region is here", location_of(guard))


@register_lint_rule(
    "barrier-divergence",
    "sycl.group_barrier must not execute under control flow that may "
    "diverge across the work-group")
def _lint_barrier_divergence(ctx: LintContext) -> None:
    barriers = [op for op in ctx.module.walk()
                if isinstance(op, SYCLGroupBarrierOp)]
    if not barriers:
        return
    uniformity = ctx.am.get(UniformityAnalysis, ctx.module)
    for barrier in barriers:
        if uniformity.is_in_divergent_region(barrier):
            ctx.error(
                "'sycl.group_barrier' under control flow that uniformity "
                "analysis cannot prove uniform (work-group deadlock)",
                barrier)


@register_lint_rule(
    "readonly-accessor-write",
    "stores must not target a view of a read-only accessor")
def _lint_readonly_accessor_write(ctx: LintContext) -> None:
    # Every store, whatever its index: the access matrices leave out the
    # non-affine ones.
    for store in ctx.module.walk():
        if not isinstance(store, (affine_dialect.AffineStoreOp,
                                  memref_dialect.StoreOp)):
            continue
        base = underlying_object(store.memref)
        accessor_type = accessor_type_of(base) if base is not None \
            else None
        if accessor_type is not None and accessor_type.is_read_only:
            ctx.error(
                f"store through read-only accessor "
                f"(access mode '{accessor_type.access_mode}')", store)


@register_lint_rule(
    "dead-private-function",
    "private func.funcs no call site reaches are dead code")
def _lint_dead_private_function(ctx: LintContext) -> None:
    if ctx.module.name != "builtin.module":
        return
    callgraph = ctx.am.get(CallGraph, ctx.module)
    for function in ctx.module.walk():
        if not isinstance(function, FuncOp):
            continue
        if callgraph.has_external_callers(function):
            continue
        if not callgraph.callers_of(function):
            ctx.warning(
                f"private function '@{function.sym_name}' has no callers "
                f"and is dead", function)


@register_lint_rule(
    "uninitialised-private-load",
    "a constant-slot load of a private memref.alloca must be reached by "
    "a store (mem2reg declines it: uninitialised-slot)")
def _lint_uninitialised_private_load(ctx: LintContext) -> None:
    for op in ctx.module.walk():
        if not isinstance(op, AllocaOp):
            continue
        found = forward_private_slots(op)
        if found.never_written:
            ctx.warning(
                f"'{found.culprit.name}' reads a slot of a private array "
                f"that nothing has stored to", found.culprit).attach_note(
                    "the array is allocated here", location_of(op))
