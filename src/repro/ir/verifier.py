"""Structural IR verification.

The verifier checks the invariants transformations rely on:

* every operand of an operation is either a block argument of an enclosing
  block or the result of an operation that dominates the use;
* blocks with a terminator have it in last position only;
* region-holding operations marked ``SINGLE_BLOCK`` have exactly one block;
* per-operation checks via ``Operation.verify_op``.

Findings are produced as source-located
:class:`~repro.ir.diagnostics.Diagnostic` objects
(:func:`verify_with_diagnostics`); the classic :func:`verify` entry point
keeps returning plain message strings and raising
:class:`VerificationError` so existing drivers are unaffected.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .diagnostics import Diagnostic, DiagnosticEngine, Severity
from .dominance import block_dominates
from .location import location_of
from .operations import Block, Operation
from .traits import Trait
from .values import BlockArgument, OpResult, Value

_SINGLE_BLOCK = Trait.SINGLE_BLOCK.bit
_TERMINATOR = Trait.TERMINATOR.bit


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant.

    ``diagnostics`` carries the located findings behind the joined
    message text.
    """

    def __init__(self, message: str,
                 diagnostics: Optional[List[Diagnostic]] = None):
        super().__init__(message)
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])


def verify(op: Operation, raise_on_error: bool = True) -> List[str]:
    """Verify ``op`` and all nested operations; return diagnostics."""
    diagnostics = verify_with_diagnostics(op)
    errors = [diag.message for diag in diagnostics]
    if errors and raise_on_error:
        raise VerificationError("; ".join(errors), diagnostics)
    return errors


def verify_with_diagnostics(
        op: Operation,
        engine: Optional[DiagnosticEngine] = None) -> List[Diagnostic]:
    """Verify ``op``; return (and optionally emit) located diagnostics."""
    diagnostics: List[Diagnostic] = []
    _verify_op(op, set(), diagnostics)
    if engine is not None:
        for diagnostic in diagnostics:
            engine.emit(diagnostic)
    return diagnostics


def _report(diagnostics: List[Diagnostic], op: Operation,
            message: str) -> Diagnostic:
    diagnostic = Diagnostic(Severity.ERROR, message, location_of(op))
    diagnostics.append(diagnostic)
    return diagnostic


def _verify_op(op: Operation, visible: Set[Value],
               diagnostics: List[Diagnostic]) -> None:
    if op._HAS_VERIFIER:
        try:
            op.verify_op()
        except Exception as exc:  # noqa: BLE001 - collect as diagnostic
            _report(diagnostics, op, f"{op.name}: {exc}")

    if op._trait_mask_ & _SINGLE_BLOCK:
        for region in op.regions:
            if len(region.blocks) > 1:
                _report(diagnostics, op,
                        f"{op.name}: expected a single block per region")

    for region in op.regions:
        for block in region.blocks:
            _verify_block(block, visible, diagnostics)


def _verify_block(block: Block, visible: Set[Value],
                  diagnostics: List[Diagnostic]) -> None:
    """Verify ``block``'s ops in order.

    ``visible`` is the scope at the op owning ``block``: the arguments of
    the enclosing blocks and the results defined before it in each of
    them.  The block's own arguments and results join it while the block
    is walked and leave it on exit, so an operand in the set is visible
    without further work; only the others (a use from another block of a
    CFG region, or a real violation) take the ancestor and dominance walk
    of :func:`_value_visible_from`.
    """
    added: List[Value] = list(block.arguments)
    visible.update(added)
    ops = block.operations
    for index, op in enumerate(ops):
        if op._trait_mask_ & _TERMINATOR and index != len(ops) - 1:
            _report(
                diagnostics, op,
                f"{op.name}: terminator must be the last operation in its "
                f"block")
        for successor in op.successors:
            if successor.parent is not block.parent:
                _report(
                    diagnostics, op,
                    f"{op.name}: successor block does not belong to the "
                    f"enclosing region")
        for operand in op._operands:
            if operand not in visible and \
                    not _value_visible_from(operand, op):
                diagnostic = _report(
                    diagnostics, op,
                    f"{op.name}: operand {operand!r} does not dominate its "
                    f"use")
                defining = operand.defining_op()
                if defining is not None:
                    diagnostic.attach_note(
                        f"operand defined here by '{defining.name}'",
                        location_of(defining))
        _verify_op(op, visible, diagnostics)
        results = op.results
        if results:
            visible.update(results)
            added.extend(results)
    visible.difference_update(added)


def _value_visible_from(value: Value, user: Operation) -> bool:
    """Check that ``value`` is visible (dominates) at ``user``.

    For structured control flow it is sufficient to check that the
    defining operation/block argument belongs to an ancestor block of the
    user and, for same-block definitions, occurs earlier in the block.
    In multi-block regions (the CFG ``convert-scf-to-cf`` produces) a
    definition in a sibling block is visible when its block dominates the
    block the use is (transitively) nested in.
    """
    owner_block = value.owner_block()
    if owner_block is None:
        # Detached value (e.g. being built); treat as visible.
        return True

    # Collect blocks enclosing the user, innermost first.
    enclosing: List[Block] = []
    block: Optional[Block] = user.parent
    while block is not None:
        enclosing.append(block)
        parent_op = block.parent_op()
        block = parent_op.parent if parent_op is not None else None

    if owner_block not in enclosing:
        region = owner_block.parent
        if region is not None:
            for candidate in enclosing:
                if candidate.parent is region:
                    return block_dominates(owner_block, candidate)
        return False

    if isinstance(value, BlockArgument):
        return True

    assert isinstance(value, OpResult)
    defining = value.defining_op()
    if defining is None:
        return True
    if defining.parent is user.parent:
        return defining.is_before_in_block(user)
    # Defined in an enclosing block: find the ancestor of `user` that lives in
    # the same block and compare positions.
    ancestor = user
    while ancestor.parent is not None and ancestor.parent is not defining.parent:
        next_parent = ancestor.parent_op()
        if next_parent is None:
            return True
        ancestor = next_parent
    if ancestor.parent is defining.parent:
        return defining.is_before_in_block(ancestor)
    return True
