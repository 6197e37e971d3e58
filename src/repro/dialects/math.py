"""``math`` dialect: transcendental and other scalar math functions."""

from __future__ import annotations

import math
from typing import Callable

from ..ir import (
    FloatAttr,
    InterpretableOpInterface,
    Operation,
    Trait,
    Value,
    register_op,
)
from ..interp.memory import TrapError
from ..interp.registry import register_evaluator
from .arith import constant_value_of

#: What a scalar function raises outside its domain (``sqrt(-1)``,
#: ``log(0)``, ``rsqrt(0)``, an overflowing ``exp``).
DOMAIN_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

#: Operation name -> its ``PY_FUNC``.  Every execution tier computes a
#: ``math`` op by calling (or, lane-wise, confirming a suspect NumPy
#: result against) this function, so the dialect states each op's value
#: and domain exactly once.
SCALAR_FUNCS = {}


def domain_error(name: str, error: Exception) -> TrapError:
    """The trap every tier raises for a :data:`DOMAIN_ERRORS` failure."""
    return TrapError(f"'{name}' domain error: {error}")


def evaluate(name: str, *args) -> float:
    """``name`` applied to scalar ``args``; a domain error traps."""
    try:
        return float(SCALAR_FUNCS[name](*map(float, args)))
    except DOMAIN_ERRORS as error:
        raise domain_error(name, error) from None


class _UnaryMathOp(Operation, InterpretableOpInterface):
    TRAITS = frozenset({Trait.PURE, Trait.MAY_TRAP})
    PY_FUNC: Callable[[float], float] = staticmethod(lambda x: x)

    @classmethod
    def build(cls, value: Value) -> "_UnaryMathOp":
        return cls(operands=(value,), result_types=(value.type,))

    def fold(self):
        value = constant_value_of(self.operands[0])
        if value is None:
            return None
        try:
            result = type(self).PY_FUNC(float(value))
        except DOMAIN_ERRORS:
            return None
        return [FloatAttr(result, self.results[0].type)]

    def interpret(self, args, ctx):
        # Interface-based evaluation (the registry fallback path): the
        # dialect's PY_FUNC *is* the semantics.
        return [evaluate(self.name, args[0])]


def _unary(name: str, func: Callable[[float], float]):
    @register_op
    class _Op(_UnaryMathOp):
        OPERATION_NAME = name
        PY_FUNC = staticmethod(func)

    _Op.__name__ = name.split(".")[-1].capitalize() + "Op"
    SCALAR_FUNCS[name] = func
    return _Op


SqrtOp = _unary("math.sqrt", math.sqrt)
RsqrtOp = _unary("math.rsqrt", lambda x: 1.0 / math.sqrt(x))
ExpOp = _unary("math.exp", math.exp)
LogOp = _unary("math.log", math.log)
SinOp = _unary("math.sin", math.sin)
CosOp = _unary("math.cos", math.cos)
AbsFOp = _unary("math.absf", abs)
FloorOp = _unary("math.floor", math.floor)
CeilOp = _unary("math.ceil", math.ceil)
TanhOp = _unary("math.tanh", math.tanh)


@register_op
class PowFOp(Operation):
    OPERATION_NAME = "math.powf"
    TRAITS = frozenset({Trait.PURE, Trait.MAY_TRAP})
    # math.pow, not **: a negative base with a fractional exponent must
    # trap (ValueError), not produce a complex that crashes downstream
    # (or, folded, stay unfolded so it traps at runtime).
    PY_FUNC = staticmethod(math.pow)

    @classmethod
    def build(cls, base: Value, exponent: Value) -> "PowFOp":
        return cls(operands=(base, exponent), result_types=(base.type,))

    def fold(self):
        base = constant_value_of(self.operands[0])
        exponent = constant_value_of(self.operands[1])
        if base is None or exponent is None:
            return None
        try:
            result = self.PY_FUNC(float(base), float(exponent))
        except DOMAIN_ERRORS:
            return None
        return [FloatAttr(result, self.results[0].type)]


@register_op
class FmaOp(Operation):
    """Fused multiply-add ``a * b + c``."""

    OPERATION_NAME = "math.fma"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, a: Value, b: Value, c: Value) -> "FmaOp":
        return cls(operands=(a, b, c), result_types=(a.type,))

    def fold(self):
        values = [constant_value_of(v) for v in self.operands]
        if any(v is None for v in values):
            return None
        a, b, c = (float(v) for v in values)
        return [FloatAttr(a * b + c, self.results[0].type)]


SCALAR_FUNCS["math.powf"] = PowFOp.PY_FUNC


@register_evaluator("math.powf")
def _eval_powf(ctx, op, args):
    return [evaluate("math.powf", args[0], args[1])]


@register_evaluator("math.fma")
def _eval_fma(ctx, op, args):
    return [float(args[0]) * float(args[1]) + float(args[2])]
