"""``cf`` dialect: unstructured control flow between blocks.

``convert-scf-to-cf`` (:mod:`repro.target.conversions`) lowers the
structured ``scf`` operations into a branch-based CFG made of these two
terminators.  They are the only operations in the project that use
``Operation.successors``; the verifier's CFG dominance
(:mod:`repro.ir.dominance`) and the interpreter's block-dispatch loop
(:meth:`repro.interp.interpreter.EvalContext.invoke`) exist to give them
semantics.
"""

from __future__ import annotations

from typing import Sequence

from ..ir import (
    Block,
    IntegerAttr,
    Operation,
    Trait,
    Value,
    i64,
    register_op,
)


@register_op
class BranchOp(Operation):
    """Unconditional branch: ``cf.br ^dest(%args...)``."""

    OPERATION_NAME = "cf.br"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, dest: Block,
              args: Sequence[Value] = ()) -> "BranchOp":
        return cls(operands=tuple(args), successors=(dest,))

    @property
    def dest(self) -> Block:
        return self.successors[0]

    def verify_op(self) -> None:
        if len(self.successors) != 1:
            raise ValueError("cf.br needs exactly one successor")
        if len(self.operands) != len(self.dest.arguments):
            raise ValueError(
                f"branch passes {len(self.operands)} value(s) to a block "
                f"expecting {len(self.dest.arguments)} argument(s)")


@register_op
class CondBranchOp(Operation):
    """Conditional branch: ``cf.cond_br %c, ^then(...), ^else(...)``.

    The operand list is ``condition, true_args..., false_args...``; the
    split point is recorded in the ``num_true_args`` attribute so the op
    survives printing/parsing with its full semantics.
    """

    OPERATION_NAME = "cf.cond_br"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, condition: Value, true_dest: Block,
              true_args: Sequence[Value] = (),
              false_dest: Block = None,
              false_args: Sequence[Value] = ()) -> "CondBranchOp":
        return cls(
            operands=(condition, *true_args, *false_args),
            attributes={"num_true_args": IntegerAttr(len(true_args), i64())},
            successors=(true_dest, false_dest))

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_dest(self) -> Block:
        return self.successors[0]

    @property
    def false_dest(self) -> Block:
        return self.successors[1]

    @property
    def true_operands(self) -> Sequence[Value]:
        split = 1 + self.get_int_attr("num_true_args", 0)
        return self.operands[1:split]

    @property
    def false_operands(self) -> Sequence[Value]:
        split = 1 + self.get_int_attr("num_true_args", 0)
        return self.operands[split:]

    def verify_op(self) -> None:
        if len(self.successors) != 2:
            raise ValueError("cf.cond_br needs exactly two successors")
        num_true = self.get_int_attr("num_true_args", 0)
        if not 0 <= num_true <= len(self.operands) - 1:
            raise ValueError(
                f"num_true_args ({num_true}) out of range for "
                f"{len(self.operands) - 1} destination operand(s)")
        if len(self.true_operands) != len(self.true_dest.arguments) \
                or len(self.false_operands) != len(self.false_dest.arguments):
            raise ValueError(
                "cf.cond_br destination operand counts do not match the "
                "successor block arguments")


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp).  A branch does not execute
# the target block itself: it returns a ``"branch"`` BlockResult and the
# function-level dispatch loop in ``EvalContext.invoke`` follows it, so
# barrier suspension keeps working through arbitrarily long block chains.
# ---------------------------------------------------------------------------

from ..interp.memory import BlockResult  # noqa: E402
from ..interp.registry import register_evaluator  # noqa: E402


@register_evaluator("cf.br")
def _eval_br(ctx, op, args):
    return BlockResult("branch", (op.dest, tuple(args)))


@register_evaluator("cf.cond_br")
def _eval_cond_br(ctx, op, args):
    split = 1 + op.get_int_attr("num_true_args", 0)
    if args[0]:
        return BlockResult("branch", (op.true_dest, tuple(args[1:split])))
    return BlockResult("branch", (op.false_dest, tuple(args[split:])))
