"""``arith`` dialect: integer, index and floating-point arithmetic.

All operations are pure; most implement ``fold`` so the canonicalizer and the
host-device constant propagation (paper, Section VII-B) can simplify code
once constants are known.
"""

from __future__ import annotations

import math
from typing import Optional

from ..ir import (
    Attribute,
    BoolAttr,
    FloatAttr,
    FloatType,
    IntegerAttr,
    IntegerType,
    Operation,
    StringAttr,
    Trait,
    Type,
    Value,
    i1,
    is_float,
    register_op,
)


def _const_value(value: Value):
    """Return the python constant behind ``value`` if it is constant-like."""
    defining = value.defining_op()
    if defining is None:
        return None
    if isinstance(defining, ConstantOp):
        return defining.value
    return None


@register_op
class ConstantOp(Operation):
    """Materializes an integer, index, float or boolean constant."""

    OPERATION_NAME = "arith.constant"
    TRAITS = frozenset({Trait.PURE, Trait.CONSTANT_LIKE})

    @classmethod
    def build(cls, value, type_: Type) -> "ConstantOp":
        if isinstance(type_, FloatType):
            attr: Attribute = FloatAttr(float(value), type_)
        elif isinstance(type_, IntegerType) and type_.width == 1:
            attr = BoolAttr(bool(value))
        else:
            attr = IntegerAttr(int(value), type_)
        return cls(operands=(), result_types=(type_,), attributes={"value": attr})

    @property
    def value(self):
        attr = self.attributes["value"]
        if isinstance(attr, (IntegerAttr, FloatAttr)):
            return attr.value
        if isinstance(attr, BoolAttr):
            return attr.value
        raise TypeError(f"unexpected constant attribute {attr!r}")


class _BinaryOp(Operation):
    """Shared implementation for binary element-wise arithmetic."""

    TRAITS = frozenset({Trait.PURE})
    PY_FUNC = None

    @classmethod
    def build(cls, lhs: Value, rhs: Value,
              result_type: Optional[Type] = None) -> "_BinaryOp":
        return cls(operands=(lhs, rhs),
                   result_types=(result_type or lhs.type,))

    def _compute(self, a, b):
        raise NotImplementedError

    def fold(self):
        a = _const_value(self.operands[0])
        b = _const_value(self.operands[1])
        if a is None or b is None:
            return None
        if self.OPERATION_NAME in ("arith.shli", "arith.shrsi"):
            # Out-of-range shifts are poison (and a huge Python shift
            # would allocate unboundedly): leave them to trap at runtime.
            width = getattr(self.results[0].type, "width", 64)
            if not 0 <= int(b) < width:
                return None
        try:
            result = self._compute(a, b)
        except (ZeroDivisionError, ValueError, OverflowError):
            # Not foldable (division by zero, domain error): keep the op
            # so the runtime trap/IEEE semantics apply.
            return None
        type_ = self.results[0].type
        if is_float(type_):
            return [FloatAttr(float(result), type_)]
        return [IntegerAttr(int(result), type_)]


def _int_binop(name: str, func, commutative: bool = False,
               identity: Optional[int] = None, may_trap: bool = False):
    """Factory for integer/index binary operations."""

    traits = {Trait.PURE}
    if commutative:
        traits.add(Trait.COMMUTATIVE)
    if may_trap:
        traits.add(Trait.MAY_TRAP)

    @register_op
    class _Op(_BinaryOp):
        OPERATION_NAME = name
        TRAITS = frozenset(traits)
        IDENTITY = identity

        def _compute(self, a, b):
            return func(a, b)

    _Op.__name__ = name.split(".")[-1].capitalize() + "Op"
    return _Op


def _float_binop(name: str, func, commutative: bool = False,
                 identity: Optional[float] = None):
    traits = {Trait.PURE}
    if commutative:
        traits.add(Trait.COMMUTATIVE)

    @register_op
    class _Op(_BinaryOp):
        OPERATION_NAME = name
        TRAITS = frozenset(traits)
        IDENTITY = identity

        def _compute(self, a, b):
            return func(a, b)

    _Op.__name__ = name.split(".")[-1].capitalize() + "Op"
    return _Op


def _floordiv(a, b):
    return int(a / b) if (a < 0) != (b < 0) and a % b != 0 else a // b


AddIOp = _int_binop("arith.addi", lambda a, b: a + b, commutative=True, identity=0)
SubIOp = _int_binop("arith.subi", lambda a, b: a - b)
MulIOp = _int_binop("arith.muli", lambda a, b: a * b, commutative=True, identity=1)
DivSIOp = _int_binop("arith.divsi", _floordiv, may_trap=True)
DivUIOp = _int_binop("arith.divui", lambda a, b: a // b, may_trap=True)
RemSIOp = _int_binop("arith.remsi", lambda a, b: a - _floordiv(a, b) * b, may_trap=True)
RemUIOp = _int_binop("arith.remui", lambda a, b: a % b, may_trap=True)
AndIOp = _int_binop("arith.andi", lambda a, b: a & b, commutative=True)
OrIOp = _int_binop("arith.ori", lambda a, b: a | b, commutative=True)
XOrIOp = _int_binop("arith.xori", lambda a, b: a ^ b, commutative=True)
ShLIOp = _int_binop("arith.shli", lambda a, b: a << b, may_trap=True)
ShRSIOp = _int_binop("arith.shrsi", lambda a, b: a >> b, may_trap=True)
MinSIOp = _int_binop("arith.minsi", min, commutative=True)
MaxSIOp = _int_binop("arith.maxsi", max, commutative=True)

def _nan_propagating(func):
    """MLIR's minf/maxf propagate NaN regardless of operand order;
    Python's min/max return whichever operand compares 'first'."""

    def apply(a, b):
        if math.isnan(a) or math.isnan(b):
            return math.nan
        return func(a, b)

    return apply


AddFOp = _float_binop("arith.addf", lambda a, b: a + b, commutative=True, identity=0.0)
SubFOp = _float_binop("arith.subf", lambda a, b: a - b)
MulFOp = _float_binop("arith.mulf", lambda a, b: a * b, commutative=True, identity=1.0)
DivFOp = _float_binop("arith.divf", lambda a, b: a / b)
RemFOp = _float_binop("arith.remf", math.fmod)
MinFOp = _float_binop("arith.minf", _nan_propagating(min), commutative=True)
MaxFOp = _float_binop("arith.maxf", _nan_propagating(max), commutative=True)


#: Comparison predicates follow MLIR's arith.cmpi/cmpf spelling.
_INT_PREDICATES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}

def _has_nan(a, b) -> bool:
    return (isinstance(a, float) and math.isnan(a)) \
        or (isinstance(b, float) and math.isnan(b))


def _unordered(compare):
    """MLIR's u* cmpf predicates are true when either operand is NaN."""
    return lambda a, b: _has_nan(a, b) or compare(a, b)


_FLOAT_PREDICATES = {
    "oeq": lambda a, b: a == b,
    # Ordered not-equal is false on NaN; bare Python != would be true.
    "one": lambda a, b: not _has_nan(a, b) and a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
    "ueq": _unordered(lambda a, b: a == b),
    "une": _unordered(lambda a, b: a != b),
    "ult": _unordered(lambda a, b: a < b),
    "ule": _unordered(lambda a, b: a <= b),
    "ugt": _unordered(lambda a, b: a > b),
    "uge": _unordered(lambda a, b: a >= b),
}


@register_op
class CmpIOp(Operation):
    OPERATION_NAME = "arith.cmpi"
    TRAITS = frozenset({Trait.PURE})
    PREDICATES = _INT_PREDICATES

    @classmethod
    def build(cls, predicate: str, lhs: Value, rhs: Value) -> "CmpIOp":
        if predicate not in cls.PREDICATES:
            raise ValueError(f"unknown cmpi predicate {predicate!r}")
        return cls(operands=(lhs, rhs), result_types=(i1(),),
                   attributes={"predicate": StringAttr(predicate)})

    @property
    def predicate(self) -> str:
        return self.get_str_attr("predicate", "eq")

    def fold(self):
        a = _const_value(self.operands[0])
        b = _const_value(self.operands[1])
        if a is None or b is None:
            return None
        return [BoolAttr(self.PREDICATES[self.predicate](a, b))]


@register_op
class CmpFOp(CmpIOp):
    OPERATION_NAME = "arith.cmpf"
    PREDICATES = _FLOAT_PREDICATES


@register_op
class SelectOp(Operation):
    OPERATION_NAME = "arith.select"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, condition: Value, true_value: Value,
              false_value: Value) -> "SelectOp":
        return cls(operands=(condition, true_value, false_value),
                   result_types=(true_value.type,))

    def fold(self):
        cond = _const_value(self.operands[0])
        if cond is None:
            return None
        return [self.operands[1] if cond else self.operands[2]]


class _CastOp(Operation):
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, value: Value, result_type: Type) -> "_CastOp":
        return cls(operands=(value,), result_types=(result_type,))

    def _convert(self, value):
        raise NotImplementedError

    def fold(self):
        value = _const_value(self.operands[0])
        if value is None:
            return None
        try:
            converted = self._convert(value)
        except (ValueError, OverflowError):
            # e.g. fptosi of NaN/inf: leave the op to trap at runtime.
            return None
        type_ = self.results[0].type
        if is_float(type_):
            return [FloatAttr(float(converted), type_)]
        if isinstance(type_, IntegerType) and type_.width == 1:
            return [BoolAttr(bool(converted))]
        return [IntegerAttr(int(converted), type_)]


@register_op
class IndexCastOp(_CastOp):
    OPERATION_NAME = "arith.index_cast"

    def _convert(self, value):
        return int(value)


@register_op
class ExtSIOp(_CastOp):
    OPERATION_NAME = "arith.extsi"

    def _convert(self, value):
        return int(value)


@register_op
class TruncIOp(_CastOp):
    OPERATION_NAME = "arith.trunci"

    def _convert(self, value):
        width = self.results[0].type.width
        return int(value) & ((1 << width) - 1)


@register_op
class SIToFPOp(_CastOp):
    OPERATION_NAME = "arith.sitofp"

    def _convert(self, value):
        return float(value)


@register_op
class FPToSIOp(_CastOp):
    OPERATION_NAME = "arith.fptosi"

    def _convert(self, value):
        return int(value)


@register_op
class ExtFOp(_CastOp):
    OPERATION_NAME = "arith.extf"

    def _convert(self, value):
        return float(value)


@register_op
class TruncFOp(_CastOp):
    OPERATION_NAME = "arith.truncf"

    def _convert(self, value):
        return float(value)


@register_op
class NegFOp(Operation):
    OPERATION_NAME = "arith.negf"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, value: Value) -> "NegFOp":
        return cls(operands=(value,), result_types=(value.type,))

    def fold(self):
        value = _const_value(self.operands[0])
        if value is None:
            return None
        return [FloatAttr(-float(value), self.results[0].type)]


def constant_value_of(value: Value):
    """Python constant behind ``value`` or None."""
    return _const_value(value)


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp) — the dialect owns its
# execution semantics just like it owns its folds.
# ---------------------------------------------------------------------------

from ..interp.memory import TrapError  # noqa: E402  (registry-safe import)
from ..interp.registry import register_evaluator  # noqa: E402


def _coerce_to(type_: Type, value):
    """Round an evaluated result through its IR result type."""
    if is_float(type_):
        return float(value)
    if isinstance(type_, IntegerType) and type_.width == 1:
        return bool(value)
    return int(value)


@register_evaluator("arith.constant")
def _eval_constant(ctx, op, args):
    return [op.value]


def _eval_binary(ctx, op, args):
    try:
        result = op._compute(args[0], args[1])
    except (ZeroDivisionError, ValueError):
        # Integer division by zero traps; float ops follow IEEE-754
        # (divf by zero is a defined +-inf/NaN, remf by zero is NaN) so
        # that speculating a guarded divf (a legal move for a PURE op)
        # cannot turn into a spurious post-pipeline trap.
        if not is_float(op.results[0].type):
            raise TrapError(f"division by zero in '{op.name}'") from None
        result = _ieee_zero_divide(op.name, float(args[0]), float(args[1]))
    return [_coerce_to(op.results[0].type, result)]


def _ieee_zero_divide(op_name: str, a: float, b: float) -> float:
    # ``llvm.fdiv`` is the same op after convert-arith-to-llvm: lowering
    # must not turn a defined +-inf into NaN.
    if op_name in ("arith.divf", "llvm.fdiv") and a != 0.0 \
            and not math.isnan(a):
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return math.nan


for _name in (
    "arith.addi", "arith.subi", "arith.muli", "arith.divsi", "arith.divui",
    "arith.remsi", "arith.remui", "arith.andi", "arith.ori", "arith.xori",
    "arith.minsi", "arith.maxsi",
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.remf",
    "arith.minf", "arith.maxf",
):
    register_evaluator(_name, _eval_binary)


def _eval_shift(ctx, op, args):
    # MLIR calls shifts >= the bit width (or negative) poison; trapping
    # also bounds the memory a runaway Python `1 << huge` would claim.
    width = getattr(op.results[0].type, "width", 64)
    shift = int(args[1])
    if not 0 <= shift < width:
        raise TrapError(
            f"shift amount {shift} out of range for "
            f"{op.results[0].type} in '{op.name}'")
    return [_coerce_to(op.results[0].type,
                       op._compute(int(args[0]), shift))]


register_evaluator("arith.shli", _eval_shift)
register_evaluator("arith.shrsi", _eval_shift)


def _eval_cmp(ctx, op, args):
    # Parsed IR bypasses build()-time validation, so guard the lookup.
    predicate = op.PREDICATES.get(op.predicate)
    if predicate is None:
        raise TrapError(
            f"unknown {op.name} predicate {op.predicate!r}")
    return [bool(predicate(args[0], args[1]))]


register_evaluator("arith.cmpi", _eval_cmp)
register_evaluator("arith.cmpf", _eval_cmp)


@register_evaluator("arith.select")
def _eval_select(ctx, op, args):
    return [args[1] if args[0] else args[2]]


def _eval_cast(ctx, op, args):
    try:
        return [_coerce_to(op.results[0].type, op._convert(args[0]))]
    except (ValueError, OverflowError) as error:
        # e.g. fptosi of NaN or of the inf a divf-by-zero produced.
        raise TrapError(
            f"'{op.name}' cannot convert {args[0]!r}: {error}") from None


for _name in (
    "arith.index_cast", "arith.extsi", "arith.trunci", "arith.sitofp",
    "arith.fptosi", "arith.extf", "arith.truncf",
):
    register_evaluator(_name, _eval_cast)


@register_evaluator("arith.negf")
def _eval_negf(ctx, op, args):
    return [-float(args[0])]
