"""``scf`` dialect: structured control flow (loops and conditionals)."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir import (
    Block,
    IndexType,
    LoopLikeInterface,
    Operation,
    Trait,
    Type,
    Value,
    register_op,
)
from .arith import constant_value_of


@register_op
class YieldOp(Operation):
    """Terminator yielding values from an ``scf`` region."""

    OPERATION_NAME = "scf.yield"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, values: Sequence[Value] = ()) -> "YieldOp":
        return cls(operands=tuple(values))


@register_op
class ForOp(Operation, LoopLikeInterface):
    """Counted loop ``for %iv = %lb to %ub step %step iter_args(...)``."""

    OPERATION_NAME = "scf.for"
    TRAITS = frozenset({Trait.SINGLE_BLOCK, Trait.LOOP_LIKE})

    @classmethod
    def build(cls, lower: Value, upper: Value, step: Value,
              iter_args: Sequence[Value] = ()) -> "ForOp":
        result_types = tuple(v.type for v in iter_args)
        op = cls(operands=(lower, upper, step, *iter_args),
                 result_types=result_types, regions=1)
        body = Block([IndexType(), *[v.type for v in iter_args]],
                     ["iv"] + [f"iter{i}" for i in range(len(iter_args))])
        op.regions[0].add_block(body)
        return op

    # -- accessors -----------------------------------------------------------
    @property
    def lower_bound(self) -> Value:
        return self.operands[0]

    @property
    def upper_bound(self) -> Value:
        return self.operands[1]

    @property
    def step(self) -> Value:
        return self.operands[2]

    @property
    def init_args(self) -> Sequence[Value]:
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].front

    def induction_variable(self) -> Value:
        return self.body.arguments[0]

    @property
    def region_iter_args(self) -> Sequence[Value]:
        return self.body.arguments[1:]

    def loop_body(self) -> Block:
        return self.body

    def constant_trip_count(self) -> Optional[int]:
        lb = constant_value_of(self.lower_bound)
        ub = constant_value_of(self.upper_bound)
        step = constant_value_of(self.step)
        if lb is None or ub is None or step is None or step <= 0:
            return None
        return max(0, -(-(ub - lb) // step))

    def yielded_values(self) -> Sequence[Value]:
        terminator = self.body.terminator
        return terminator.operands if terminator is not None else ()


@register_op
class IfOp(Operation):
    """Conditional with a then region and an optional else region."""

    OPERATION_NAME = "scf.if"
    TRAITS = frozenset({Trait.SINGLE_BLOCK})

    @classmethod
    def build(cls, condition: Value, result_types: Sequence[Type] = (),
              with_else: bool = False) -> "IfOp":
        op = cls(operands=(condition,), result_types=tuple(result_types),
                 regions=2 if with_else or result_types else 1)
        op.regions[0].add_block(Block())
        if len(op.regions) > 1:
            op.regions[1].add_block(Block())
        return op

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def then_block(self) -> Block:
        return self.regions[0].front

    @property
    def else_block(self) -> Optional[Block]:
        if len(self.regions) < 2 or self.regions[1].empty:
            return None
        return self.regions[1].front

    def has_else(self) -> bool:
        return self.else_block is not None


@register_op
class WhileOp(Operation):
    """General while loop with a condition ("before") and body ("after") region."""

    OPERATION_NAME = "scf.while"
    TRAITS = frozenset({Trait.LOOP_LIKE})

    @classmethod
    def build(cls, init_args: Sequence[Value],
              result_types: Sequence[Type]) -> "WhileOp":
        op = cls(operands=tuple(init_args), result_types=tuple(result_types),
                 regions=2)
        op.regions[0].add_block(Block([v.type for v in init_args]))
        op.regions[1].add_block(Block(list(result_types)))
        return op

    @property
    def before_block(self) -> Block:
        return self.regions[0].front

    @property
    def after_block(self) -> Block:
        return self.regions[1].front


@register_op
class ConditionOp(Operation):
    """Terminator of the "before" region of ``scf.while``."""

    OPERATION_NAME = "scf.condition"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, condition: Value, args: Sequence[Value] = ()) -> "ConditionOp":
        return cls(operands=(condition, *args))


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp).  Region-executing evaluators
# are generator functions delegating with ``yield from`` so work-group
# barriers nested inside loop/if bodies can suspend the work item.
# ---------------------------------------------------------------------------

from ..interp.memory import BlockResult, TrapError  # noqa: E402
from ..interp.registry import register_evaluator  # noqa: E402


@register_evaluator("scf.yield")
def _eval_yield(ctx, op, args):
    return BlockResult("yield", tuple(args))


@register_evaluator("scf.condition")
def _eval_condition(ctx, op, args):
    return BlockResult("condition", tuple(args))


@register_evaluator("scf.for")
def _eval_for(ctx, op, args):
    lower, upper, step = int(args[0]), int(args[1]), int(args[2])
    if step <= 0:
        raise TrapError(f"scf.for with non-positive step {step}")
    carried = list(args[3:])
    body = op.body
    for iv in range(lower, upper, step):
        outcome = yield from ctx.exec_block(body, [iv, *carried])
        if outcome.kind == "yield":
            carried = list(outcome.values)
    return carried


@register_evaluator("scf.if")
def _eval_if(ctx, op, args):
    block = op.then_block if args[0] else op.else_block
    if block is None:
        if op.results:
            raise TrapError("scf.if with results but no else region")
        return []
    outcome = yield from ctx.exec_block(block)
    return list(outcome.values)


@register_evaluator("scf.while")
def _eval_while(ctx, op, args):
    carried = list(args)
    while True:
        outcome = yield from ctx.exec_block(op.before_block, carried)
        if outcome.kind != "condition":
            raise TrapError(
                "scf.while 'before' region must end in scf.condition")
        if not outcome.values[0]:
            return list(outcome.values[1:])
        after = yield from ctx.exec_block(op.after_block,
                                          list(outcome.values[1:]))
        carried = list(after.values)
