"""``llvm`` dialect subset.

The host side of a DPC++ compilation arrives as LLVM IR and is translated
into the MLIR LLVM dialect (paper, Fig. 1, via ``mlir-translate``).  This
module models the subset of that dialect needed to express DPC++ host code
for SYCL command groups: functions, calls into the SYCL runtime, stack
allocations of SYCL objects, loads/stores and constants.  The host raising
pass (``repro.transforms.host_raising``) pattern-matches these operations.
"""

from __future__ import annotations

import math as _math
from typing import List, Optional, Sequence

from ..ir import (
    Block,
    CallOpInterface,
    FloatAttr,
    FloatType,
    FunctionType,
    IntegerAttr,
    MemoryEffect,
    MemoryEffectsInterface,
    Operation,
    PointerType,
    StringAttr,
    Trait,
    Type,
    TypeAttr,
    Value,
    i64,
    int_array_attr,
    int_array_values,
    is_scalar,
    register_op,
)
from ..ir.interfaces import allocate, read, write


@register_op
class LLVMFuncOp(Operation):
    """An LLVM-dialect function (host code)."""

    OPERATION_NAME = "llvm.func"
    TRAITS = frozenset({Trait.SYMBOL, Trait.ISOLATED_FROM_ABOVE})

    @classmethod
    def build(cls, name: str, arg_types: Sequence[Type],
              result_types: Sequence[Type] = (),
              arg_names: Optional[Sequence[str]] = None,
              is_declaration: bool = False) -> "LLVMFuncOp":
        func_type = FunctionType(tuple(arg_types), tuple(result_types))
        op = cls(
            operands=(),
            result_types=(),
            attributes={
                "sym_name": StringAttr(name),
                "function_type": TypeAttr(func_type),
            },
            regions=1,
        )
        if not is_declaration:
            entry = Block(arg_types, arg_names)
            op.regions[0].add_block(entry)
        return op

    @property
    def sym_name(self) -> str:
        return self.get_str_attr("sym_name", "")

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        assert isinstance(attr, TypeAttr)
        return attr.value  # type: ignore[return-value]

    @property
    def is_declaration(self) -> bool:
        return not self.regions or self.regions[0].empty

    @property
    def body(self) -> Block:
        return self.regions[0].front

    @property
    def arguments(self):
        return self.body.arguments

    def is_kernel(self) -> bool:
        # `convert-func-to-llvm` carries the sycl.* metadata across, so
        # lowered kernels keep launching through the engine's ND-range
        # path exactly like their `func.func` originals.
        return "sycl.kernel" in self.attributes


@register_op
class LLVMReturnOp(Operation):
    OPERATION_NAME = "llvm.return"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, values: Sequence[Value] = ()) -> "LLVMReturnOp":
        return cls(operands=tuple(values))


@register_op
class LLVMCallOp(Operation, CallOpInterface):
    """A call, usually into the (mangled) SYCL runtime."""

    OPERATION_NAME = "llvm.call"

    @classmethod
    def build(cls, callee: str, args: Sequence[Value],
              result_types: Sequence[Type] = ()) -> "LLVMCallOp":
        return cls(operands=tuple(args), result_types=tuple(result_types),
                   attributes={"callee": StringAttr(callee)})

    def callee_name(self) -> Optional[str]:
        return self.get_str_attr("callee")

    def call_arguments(self) -> Sequence[Value]:
        return self.operands


@register_op
class LLVMConstantOp(Operation):
    OPERATION_NAME = "llvm.mlir.constant"
    TRAITS = frozenset({Trait.PURE, Trait.CONSTANT_LIKE})

    @classmethod
    def build(cls, value, type_: Type) -> "LLVMConstantOp":
        if isinstance(type_, FloatType):
            attr = FloatAttr(float(value), type_)
        else:
            attr = IntegerAttr(int(value), type_)
        return cls(operands=(), result_types=(type_,), attributes={"value": attr})

    @property
    def value(self):
        attr = self.attributes["value"]
        return attr.value


@register_op
class LLVMUndefOp(Operation):
    OPERATION_NAME = "llvm.mlir.undef"
    TRAITS = frozenset({Trait.PURE})


@register_op
class LLVMAllocaOp(Operation, MemoryEffectsInterface):
    """Stack allocation of a host object (SYCL buffer/accessor/range...)."""

    OPERATION_NAME = "llvm.alloca"

    @classmethod
    def build(cls, size: Value, object_name: Optional[str] = None,
              element_type: Optional[Type] = None) -> "LLVMAllocaOp":
        attrs = {}
        if object_name is not None:
            attrs["object"] = StringAttr(object_name)
        return cls(operands=(size,), result_types=(PointerType(element_type),),
                   attributes=attrs)

    def memory_effects(self) -> List[MemoryEffect]:
        return [allocate(self.results[0])]


@register_op
class LLVMLoadOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "llvm.load"

    @classmethod
    def build(cls, pointer: Value, result_type: Type) -> "LLVMLoadOp":
        return cls(operands=(pointer,), result_types=(result_type,))

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def memory_effects(self) -> List[MemoryEffect]:
        return [read(self.pointer)]


@register_op
class LLVMStoreOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "llvm.store"

    @classmethod
    def build(cls, value: Value, pointer: Value) -> "LLVMStoreOp":
        return cls(operands=(value, pointer))

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    def memory_effects(self) -> List[MemoryEffect]:
        return [write(self.pointer)]


@register_op
class LLVMGEPOp(Operation):
    """Pointer arithmetic (``getelementptr``)."""

    OPERATION_NAME = "llvm.getelementptr"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, base: Value, indices: Sequence[Value] = (),
              static_offsets: Sequence[int] = ()) -> "LLVMGEPOp":
        # Offsets are a real attribute so they print, parse, and take part
        # in CSE's structural identity.
        return cls(operands=(base, *indices), result_types=(PointerType(),),
                   attributes={"static_offsets": int_array_attr(
                       static_offsets, i64())})

    @property
    def static_offsets(self) -> List[int]:
        return int_array_values(self.attributes.get("static_offsets"))


@register_op
class LLVMBitcastOp(Operation):
    OPERATION_NAME = "llvm.bitcast"
    TRAITS = frozenset({Trait.PURE})


@register_op
class LLVMGlobalOp(Operation):
    """Module-level global constant (e.g. a host-side filter array)."""

    OPERATION_NAME = "llvm.mlir.global"
    TRAITS = frozenset({Trait.SYMBOL})


@register_op
class LLVMAddressOfOp(Operation):
    OPERATION_NAME = "llvm.mlir.addressof"
    TRAITS = frozenset({Trait.PURE})


# ---------------------------------------------------------------------------
# Value ops mirroring ``arith`` (the convert-arith-to-llvm targets).
#
# Each class provides the same duck-typed hooks arith's op classes do
# (``_compute`` / ``PREDICATES`` + ``predicate`` / ``_convert``), so the
# arith evaluators are registered verbatim for the llvm names below and
# both dialects share one set of trap/IEEE semantics by construction.
# ---------------------------------------------------------------------------

from . import arith as _arith  # noqa: E402  (shares op machinery)

LLVMAddOp = _arith._int_binop("llvm.add", lambda a, b: a + b,
                              commutative=True, identity=0)
LLVMSubOp = _arith._int_binop("llvm.sub", lambda a, b: a - b)
LLVMMulOp = _arith._int_binop("llvm.mul", lambda a, b: a * b,
                              commutative=True, identity=1)
LLVMSDivOp = _arith._int_binop("llvm.sdiv", _arith._floordiv, may_trap=True)
LLVMUDivOp = _arith._int_binop("llvm.udiv", lambda a, b: a // b,
                               may_trap=True)
LLVMSRemOp = _arith._int_binop(
    "llvm.srem", lambda a, b: a - _arith._floordiv(a, b) * b, may_trap=True)
LLVMURemOp = _arith._int_binop("llvm.urem", lambda a, b: a % b,
                               may_trap=True)
LLVMAndOp = _arith._int_binop("llvm.and", lambda a, b: a & b,
                              commutative=True)
LLVMOrOp = _arith._int_binop("llvm.or", lambda a, b: a | b, commutative=True)
LLVMXOrOp = _arith._int_binop("llvm.xor", lambda a, b: a ^ b,
                              commutative=True)
LLVMShlOp = _arith._int_binop("llvm.shl", lambda a, b: a << b, may_trap=True)
LLVMAShrOp = _arith._int_binop("llvm.ashr", lambda a, b: a >> b,
                               may_trap=True)
LLVMSMinOp = _arith._int_binop("llvm.intr.smin", min, commutative=True)
LLVMSMaxOp = _arith._int_binop("llvm.intr.smax", max, commutative=True)

LLVMFAddOp = _arith._float_binop("llvm.fadd", lambda a, b: a + b,
                                 commutative=True, identity=0.0)
LLVMFSubOp = _arith._float_binop("llvm.fsub", lambda a, b: a - b)
LLVMFMulOp = _arith._float_binop("llvm.fmul", lambda a, b: a * b,
                                 commutative=True, identity=1.0)
LLVMFDivOp = _arith._float_binop("llvm.fdiv", lambda a, b: a / b)
LLVMFRemOp = _arith._float_binop("llvm.frem", _math.fmod)
LLVMFMinOp = _arith._float_binop(
    "llvm.intr.fmin", _arith._nan_propagating(min), commutative=True)
LLVMFMaxOp = _arith._float_binop(
    "llvm.intr.fmax", _arith._nan_propagating(max), commutative=True)


@register_op
class LLVMICmpOp(_arith.CmpIOp):
    OPERATION_NAME = "llvm.icmp"
    PREDICATES = _arith._INT_PREDICATES


@register_op
class LLVMFCmpOp(_arith.CmpIOp):
    OPERATION_NAME = "llvm.fcmp"
    PREDICATES = _arith._FLOAT_PREDICATES


@register_op
class LLVMSelectOp(_arith.SelectOp):
    OPERATION_NAME = "llvm.select"


@register_op
class LLVMFNegOp(_arith.NegFOp):
    OPERATION_NAME = "llvm.fneg"


@register_op
class LLVMSExtOp(_arith.ExtSIOp):
    OPERATION_NAME = "llvm.sext"


@register_op
class LLVMZExtOp(_arith._CastOp):
    OPERATION_NAME = "llvm.zext"

    def _convert(self, value):
        width = self.operands[0].type.width
        return int(value) & ((1 << width) - 1)


@register_op
class LLVMTruncOp(_arith.TruncIOp):
    OPERATION_NAME = "llvm.trunc"


@register_op
class LLVMSIToFPOp(_arith.SIToFPOp):
    OPERATION_NAME = "llvm.sitofp"


@register_op
class LLVMFPToSIOp(_arith.FPToSIOp):
    OPERATION_NAME = "llvm.fptosi"


@register_op
class LLVMFPExtOp(_arith.ExtFOp):
    OPERATION_NAME = "llvm.fpext"


@register_op
class LLVMFPTruncOp(_arith.TruncFOp):
    OPERATION_NAME = "llvm.fptrunc"


#: ``arith`` operation name -> mirroring ``llvm`` operation class: the
#: one statement of which ``llvm.*`` value op *is* which ``arith.*`` op.
#: ``convert-arith-to-llvm`` rewrites along it (attribute-preserving,
#: which carries ``cmpi``/``cmpf`` predicates and constant ``value``
#: payloads across unchanged); the execution tiers read it backwards.
ARITH_TO_LLVM = {
    "arith.constant": LLVMConstantOp,
    "arith.addi": LLVMAddOp,
    "arith.subi": LLVMSubOp,
    "arith.muli": LLVMMulOp,
    "arith.divsi": LLVMSDivOp,
    "arith.divui": LLVMUDivOp,
    "arith.remsi": LLVMSRemOp,
    "arith.remui": LLVMURemOp,
    "arith.andi": LLVMAndOp,
    "arith.ori": LLVMOrOp,
    "arith.xori": LLVMXOrOp,
    "arith.shli": LLVMShlOp,
    "arith.shrsi": LLVMAShrOp,
    "arith.minsi": LLVMSMinOp,
    "arith.maxsi": LLVMSMaxOp,
    "arith.addf": LLVMFAddOp,
    "arith.subf": LLVMFSubOp,
    "arith.mulf": LLVMFMulOp,
    "arith.divf": LLVMFDivOp,
    "arith.remf": LLVMFRemOp,
    "arith.minf": LLVMFMinOp,
    "arith.maxf": LLVMFMaxOp,
    "arith.cmpi": LLVMICmpOp,
    "arith.cmpf": LLVMFCmpOp,
    "arith.select": LLVMSelectOp,
    "arith.negf": LLVMFNegOp,
    "arith.index_cast": LLVMSExtOp,
    "arith.extsi": LLVMSExtOp,
    "arith.trunci": LLVMTruncOp,
    "arith.sitofp": LLVMSIToFPOp,
    "arith.fptosi": LLVMFPToSIOp,
    "arith.extf": LLVMFPExtOp,
    "arith.truncf": LLVMFPTruncOp,
}

#: The same table inverted: ``llvm`` operation name -> the ``arith``
#: name whose semantics it shares.  The compiled execution tiers rename
#: an ``llvm.*`` value op through it and compile the ``arith`` op, so
#: lowered code needs no op templates of its own.  (``index_cast`` and
#: ``extsi`` both lower to ``llvm.sext``; either name compiles alike.)
LLVM_TO_ARITH = {}
for _arith_name, _llvm_class in ARITH_TO_LLVM.items():
    LLVM_TO_ARITH.setdefault(_llvm_class.OPERATION_NAME, _arith_name)


from ..ir import StructType  # noqa: E402  (grouped with the parser hook)


def parse_llvm_type(text, parse_type):
    """Dialect type-parser hook for printed ``!llvm.*`` types.

    ``text`` is the full raw spelling after ``!``.  Handles ``!llvm.ptr``,
    ``!llvm.ptr<T>`` and ``!llvm.struct<'name'>``; returns None for
    unrecognized spellings.
    """
    if text == "llvm.ptr":
        return PointerType()
    if text.startswith("llvm.ptr<") and text.endswith(">"):
        return PointerType(parse_type(text[len("llvm.ptr<"):-1]))
    if text.startswith("llvm.struct<") and text.endswith(">"):
        name = text[len("llvm.struct<"):-1].strip()
        if len(name) >= 2 and name[0] == name[-1] and name[0] in "'\"":
            name = name[1:-1]
        return StructType(name)
    return None


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp).  Value ops share the arith
# evaluators (same trap/IEEE semantics); memory ops execute against
# MemRefStorage/MemRefView runtime values, which is what
# ``convert-memref-to-llvm``'s pointers resolve to.  Pointers into
# opaque host objects (no element type) still trap with an explanation.
# ---------------------------------------------------------------------------

from ..interp.memory import (  # noqa: E402
    AccessorBinding,
    BlockResult,
    InterpreterError,
    MemRefStorage,
    MemRefView,
    TrapError,
)
from ..interp.registry import (  # noqa: E402
    lookup_evaluator,
    register_evaluator,
)


@register_evaluator("llvm.mlir.undef")
def _eval_llvm_undef(ctx, op, args):
    # A defined default keeps differential runs deterministic.
    return [0]


@register_evaluator("llvm.bitcast")
def _eval_llvm_bitcast(ctx, op, args):
    return [args[0]]


@register_evaluator("llvm.return")
def _eval_llvm_return(ctx, op, args):
    return BlockResult("return", tuple(args))


# Every value op of the table runs its ``arith`` twin's evaluator.
for _llvm_name, _arith_name in LLVM_TO_ARITH.items():
    register_evaluator(_llvm_name, lookup_evaluator(_arith_name))

register_evaluator("llvm.zext", _arith._eval_cast)  # no arith twin


def _pointer_element_type(type_):
    pointee = getattr(type_, "pointee", None)
    if pointee is not None and is_scalar(pointee):
        return pointee
    return None


@register_evaluator("llvm.alloca")
def _eval_llvm_alloca(ctx, op, args):
    element = _pointer_element_type(op.results[0].type)
    if element is None:
        raise TrapError(
            f"'{op.name}' of an opaque host object is not executable; "
            "only element-typed allocations (from convert-memref-to-llvm) "
            "have storage semantics")
    size = int(args[0]) if args else 1
    if size < 0:
        raise TrapError(f"'{op.name}' with negative size {size}")
    return [MemRefStorage((size,), element)]


def _pointer_window(value):
    """Normalize a runtime pointer value to a flat-addressable window."""
    if isinstance(value, (MemRefView, MemRefStorage)):
        return value
    if isinstance(value, AccessorBinding):
        return MemRefView(value.storage, value.base_linear_offset())
    return None


@register_evaluator("llvm.load")
def _eval_llvm_load(ctx, op, args):
    target = _pointer_window(args[0])
    if target is None:
        raise TrapError(
            f"'{op.name}' through an opaque host pointer is not executable")
    ctx.counters.count_load(target.element_bytes)
    return [target.load_flat(0)]


@register_evaluator("llvm.store")
def _eval_llvm_store(ctx, op, args):
    target = _pointer_window(args[1])
    if target is None:
        raise TrapError(
            f"'{op.name}' through an opaque host pointer is not executable")
    ctx.counters.count_store(target.element_bytes)
    target.store_flat(0, args[0])
    return []


@register_evaluator("llvm.getelementptr")
def _eval_llvm_gep(ctx, op, args):
    offset = sum(op.static_offsets) + sum(int(v) for v in args[1:])
    base = args[0]
    if isinstance(base, MemRefView):
        return [MemRefView(base.storage, base.base + offset)]
    if isinstance(base, MemRefStorage):
        return [MemRefView(base, offset)]
    if isinstance(base, AccessorBinding):
        return [MemRefView(base.storage, base.base_linear_offset() + offset)]
    raise TrapError(
        f"'{op.name}' over an opaque host pointer is not executable")


@register_evaluator("llvm.call")
def _eval_llvm_call(ctx, op, args):
    callee = op.callee_name()
    if callee is None:
        raise InterpreterError("llvm.call without a callee symbol")
    results = yield from ctx.call(callee, args)
    if len(results) != len(op.results):
        raise InterpreterError(
            f"call to '{callee}' returned {len(results)} values, "
            f"call site expects {len(op.results)}")
    return results


def _eval_llvm_unsupported(ctx, op, args):
    raise TrapError(
        f"'{op.name}' models opaque host LLVM IR and is not executable; "
        "raise the host module (host-raising pass) or interpret device "
        "functions instead")


for _name in ("llvm.mlir.global", "llvm.mlir.addressof"):
    register_evaluator(_name, _eval_llvm_unsupported)
