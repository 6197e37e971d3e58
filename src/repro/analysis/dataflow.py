"""Structured data-flow analysis framework.

MLIR ships a data-flow framework that analyses build on (paper, Sections V-B
and V-C).  Because the IR in this project uses structured control flow
(``scf``/``affine`` regions rather than arbitrary CFGs), the framework here
is a region-walking abstract interpreter: concrete analyses provide a state
type with ``copy`` / ``join`` and a transfer function, and the framework
handles straight-line code, conditionals and loop fixpoints uniformly.
"""

from __future__ import annotations

import warnings
from typing import Dict, Generic, Optional, TypeVar

from ..ir import Operation
from ..dialects import affine as affine_dialect
from ..dialects import scf as scf_dialect

StateT = TypeVar("StateT")

#: Safety bound on loop-body fixpoint iteration.  Loop bodies iterate to a
#: *real* fixpoint (change detection stops the loop); this cap only guards
#: against analyses whose join is not monotonic.  Hitting it is reported as
#: a :class:`NonConvergenceWarning` — the old silent ``4`` could stop while
#: the state was still changing, making downstream facts unsound.
LOOP_FIXPOINT_LIMIT = 64


class NonConvergenceWarning(UserWarning):
    """A loop-body fixpoint hit :data:`LOOP_FIXPOINT_LIMIT` while still
    changing; facts derived below that loop may be unsound."""


class StructuredDataFlowAnalysis(Generic[StateT]):
    """Forward abstract interpretation over structured regions.

    Subclasses implement :meth:`transfer` for straight-line operations.  The
    framework takes care of:

    * ``scf.if``: both branches are analysed from a copy of the incoming
      state and the results are joined;
    * ``scf.for`` / ``affine.for`` / ``scf.while``: the body is re-analysed
      until the state stabilises (bounded by :data:`LOOP_FIXPOINT_LIMIT`) and
      joined with the state before the loop (zero-trip case);
    * any other operation with regions: regions are analysed as if optionally
      executed (state joined with the incoming state).

    The state *before* every visited operation is recorded and can be
    queried with :meth:`state_before`.
    """

    def __init__(self):
        self._before: Dict[int, StateT] = {}
        #: False once any loop fixpoint hit the iteration cap.
        self.converged = True

    # -- to be provided by subclasses ------------------------------------
    def initial_state(self, function: Operation) -> StateT:  # pragma: no cover
        raise NotImplementedError

    def transfer(self, op: Operation, state: StateT) -> None:  # pragma: no cover
        """Apply the effect of ``op`` to ``state`` in place."""
        raise NotImplementedError

    # -- driver ------------------------------------------------------------
    def run(self, function: Operation) -> None:
        state = self.initial_state(function)
        for region in function.regions:
            for block in region.blocks:
                self._process_block(block, state)

    def state_before(self, op: Operation) -> Optional[StateT]:
        return self._before.get(id(op))

    # -- internals ----------------------------------------------------------
    def _report_non_convergence(self, loop: Operation) -> None:
        self.converged = False
        message = (
            f"data-flow fixpoint for '{loop.name}' did not converge within "
            f"{LOOP_FIXPOINT_LIMIT} iterations; facts below this loop are "
            f"conservative")
        warnings.warn(message, NonConvergenceWarning, stacklevel=3)

    def _record(self, op: Operation, state: StateT) -> None:
        self._before[id(op)] = state.copy()

    def _process_block(self, block, state: StateT) -> None:
        for op in block.operations:
            self._process_op(op, state)

    def _process_op(self, op: Operation, state: StateT) -> None:
        self._record(op, state)

        if isinstance(op, scf_dialect.IfOp):
            then_state = state.copy()
            self._process_block(op.then_block, then_state)
            else_state = state.copy()
            if op.else_block is not None:
                self._process_block(op.else_block, else_state)
            state.join(then_state)
            state.join(else_state)
            return

        if isinstance(op, (scf_dialect.ForOp, affine_dialect.AffineForOp,
                           scf_dialect.WhileOp)):
            before_loop = state.copy()
            changed = True
            for _ in range(LOOP_FIXPOINT_LIMIT):
                iteration_state = state.copy()
                for region in op.regions:
                    for block in region.blocks:
                        self._process_block(block, iteration_state)
                changed = state.join(iteration_state)
                if not changed:
                    break
            if changed:
                self._report_non_convergence(op)
            state.join(before_loop)
            return

        if op.regions:
            # Unknown region-holding operation: analyse regions as optional.
            for region in op.regions:
                for block in region.blocks:
                    region_state = state.copy()
                    self._process_block(block, region_state)
                    state.join(region_state)

        self.transfer(op, state)
