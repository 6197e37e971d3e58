"""``affine`` dialect: loops and memory accesses with affine index semantics.

The affine dialect is where the paper's loop optimizations live: Detect
Reduction operates on ``affine.for`` + ``affine.load``/``affine.store``
(Listings 4-5), and Loop Internalization tiles ``affine.for`` nests
(Listings 6-7).  The memory access analysis (Section V-D) derives access
matrices from affine index expressions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir import (
    Block,
    IndexType,
    IntegerAttr,
    LoopLikeInterface,
    int_array_attr,
    int_array_values,
    MemoryEffect,
    MemoryEffectsInterface,
    MemRefType,
    Operation,
    Trait,
    Value,
    i64,
    register_op,
)
from ..ir.interfaces import read, write
from .arith import constant_value_of


@register_op
class AffineYieldOp(Operation):
    OPERATION_NAME = "affine.yield"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, values: Sequence[Value] = ()) -> "AffineYieldOp":
        return cls(operands=tuple(values))


@register_op
class AffineForOp(Operation, LoopLikeInterface):
    """Counted loop with affine semantics.

    Lower and upper bounds are index SSA values (typically constants), the
    step is a positive integer attribute, and the body may carry loop-carried
    values through ``iter_args`` exactly like ``scf.for``.
    """

    OPERATION_NAME = "affine.for"
    TRAITS = frozenset({Trait.SINGLE_BLOCK, Trait.LOOP_LIKE})

    @classmethod
    def build(cls, lower: Value, upper: Value, step: int = 1,
              iter_args: Sequence[Value] = ()) -> "AffineForOp":
        result_types = tuple(v.type for v in iter_args)
        op = cls(operands=(lower, upper, *iter_args),
                 result_types=result_types,
                 attributes={"step": IntegerAttr(int(step), i64())},
                 regions=1)
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
    def step(self) -> int:
        return self.get_int_attr("step", 1)

    @property
    def init_args(self) -> Sequence[Value]:
        return self.operands[2:]

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

    def constant_bounds(self) -> Optional[tuple]:
        lb = constant_value_of(self.lower_bound)
        ub = constant_value_of(self.upper_bound)
        if lb is None or ub is None:
            return None
        return (int(lb), int(ub), self.step)

    def constant_trip_count(self) -> Optional[int]:
        bounds = self.constant_bounds()
        if bounds is None:
            return None
        lb, ub, step = bounds
        if step <= 0:
            return None
        return max(0, -(-(ub - lb) // step))

    def yielded_values(self) -> Sequence[Value]:
        terminator = self.body.terminator
        return terminator.operands if terminator is not None else ()


@register_op
class AffineLoadOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "affine.load"

    @classmethod
    def build(cls, memref: Value, indices: Sequence[Value] = ()) -> "AffineLoadOp":
        memref_type = memref.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError(f"affine.load expects a memref, got {memref_type}")
        return cls(operands=(memref, *indices),
                   result_types=(memref_type.element_type,))

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[1:]

    def memory_effects(self) -> List[MemoryEffect]:
        return [read(self.memref)]


@register_op
class AffineStoreOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "affine.store"

    @classmethod
    def build(cls, value: Value, memref: Value,
              indices: Sequence[Value] = ()) -> "AffineStoreOp":
        return cls(operands=(value, memref, *indices))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def memref(self) -> Value:
        return self.operands[1]

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[2:]

    def memory_effects(self) -> List[MemoryEffect]:
        return [write(self.memref)]


@register_op
class AffineApplyOp(Operation):
    """Applies an affine expression ``sum(coeff_i * operand_i) + constant``."""

    OPERATION_NAME = "affine.apply"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, coefficients: Sequence[int], operands: Sequence[Value],
              constant: int = 0) -> "AffineApplyOp":
        if len(coefficients) != len(operands):
            raise ValueError("coefficient / operand count mismatch")
        # Coefficients are a real attribute so the op prints, parses and
        # CSEs with its full semantics.
        return cls(operands=tuple(operands), result_types=(IndexType(),),
                   attributes={"constant": IntegerAttr(int(constant), i64()),
                               "coefficients": int_array_attr(
                                   coefficients, i64())})

    @property
    def coefficients(self) -> List[int]:
        return int_array_values(self.attributes.get("coefficients"))

    def fold(self):
        coefficients = self.coefficients
        if len(coefficients) != len(self.operands):
            return None  # malformed (e.g. hand-written IR); don't guess
        values = [constant_value_of(v) for v in self.operands]
        if any(v is None for v in values):
            return None
        total = self.get_int_attr("constant", 0)
        for coeff, value in zip(coefficients, values):
            total += coeff * int(value)
        return [IntegerAttr(total, i64())]


@register_op
class AffineMinOp(Operation):
    """Minimum of its operands (used for tiling boundary handling)."""

    OPERATION_NAME = "affine.min"
    TRAITS = frozenset({Trait.PURE})

    def fold(self):
        values = [constant_value_of(v) for v in self.operands]
        if any(v is None for v in values):
            return None
        return [IntegerAttr(min(int(v) for v in values), i64())]


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp)
# ---------------------------------------------------------------------------

from ..interp.memory import BlockResult, TrapError  # noqa: E402
from ..interp.registry import register_evaluator  # noqa: E402


@register_evaluator("affine.yield")
def _eval_affine_yield(ctx, op, args):
    return BlockResult("yield", tuple(args))


@register_evaluator("affine.for")
def _eval_affine_for(ctx, op, args):
    lower, upper = int(args[0]), int(args[1])
    step = op.step
    if step <= 0:
        raise TrapError(f"affine.for with non-positive step {step}")
    carried = list(args[2:])
    body = op.body
    for iv in range(lower, upper, step):
        outcome = yield from ctx.exec_block(body, [iv, *carried])
        if outcome.kind == "yield":
            carried = list(outcome.values)
    return carried


@register_evaluator("affine.apply")
def _eval_affine_apply(ctx, op, args):
    coefficients = op.coefficients
    if len(coefficients) != len(args):
        raise TrapError("affine.apply coefficient / operand count mismatch")
    total = op.get_int_attr("constant", 0)
    for coefficient, value in zip(coefficients, args):
        total += coefficient * int(value)
    return [total]


@register_evaluator("affine.min")
def _eval_affine_min(ctx, op, args):
    if not args:
        raise TrapError("affine.min with no operands")
    return [min(int(v) for v in args)]


@register_evaluator("affine.load")
def _eval_affine_load(ctx, op, args):
    target = args[0]
    ctx.counters.count_load(target.element_bytes)
    return [target.load(args[1:])]


@register_evaluator("affine.store")
def _eval_affine_store(ctx, op, args):
    target = args[1]
    ctx.counters.count_store(target.element_bytes)
    target.store(args[2:], args[0])
    return []
